package nf

import (
	"bytes"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
)

func dpiPkt(payload []byte) *packet.Packet {
	ft := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	p := packet.NewBuilder(srcMAC, dstMAC).UDP(ft, 42+len(payload), 1)
	copy(p.Payload, payload)
	return p
}

func TestSlimDPIMatchesInPrefix(t *testing.T) {
	dpi := NewSlimDPI(32, [][]byte{[]byte("EVIL"), []byte{0xde, 0xad}})

	clean := bytes.Repeat([]byte{'a'}, 64)
	v, cy := dpi.Process(dpiPkt(clean))
	if v != Forward {
		t.Error("clean packet dropped")
	}
	if cy == 0 {
		t.Error("no cycles charged")
	}

	bad := append([]byte("xxEVILxx"), bytes.Repeat([]byte{'b'}, 64)...)
	if v, _ := dpi.Process(dpiPkt(bad)); v != Drop {
		t.Error("signature in prefix not caught")
	}

	// Signature beyond the inspected prefix is invisible — that is the
	// point of slim DPI.
	deep := append(bytes.Repeat([]byte{'c'}, 40), []byte("EVIL")...)
	if v, _ := dpi.Process(dpiPkt(deep)); v != Forward {
		t.Error("SlimDPI looked past its prefix")
	}

	if dpi.Matched() != 1 {
		t.Errorf("matched=%d", dpi.Matched())
	}
	if dpi.Name() != "SlimDPI" || dpi.PrefixLen() != 32 {
		t.Error("metadata wrong")
	}
}

func TestSlimDPIShortPayload(t *testing.T) {
	dpi := NewSlimDPI(64, [][]byte{[]byte("sig")})
	if v, _ := dpi.Process(dpiPkt([]byte("si"))); v != Forward {
		t.Error("short payload mishandled")
	}
	if v, _ := dpi.Process(dpiPkt([]byte("sig"))); v != Drop {
		t.Error("exact-length payload not matched")
	}
}

func TestSlimDPICostScalesWithPrefix(t *testing.T) {
	small := NewSlimDPI(16, nil)
	big := NewSlimDPI(128, nil)
	p := dpiPkt(bytes.Repeat([]byte{'x'}, 256))
	_, cySmall := small.Process(p)
	_, cyBig := big.Process(p)
	if cyBig <= cySmall {
		t.Errorf("cost did not scale: %d vs %d", cySmall, cyBig)
	}
}

func TestSlimDPISignatureIsolation(t *testing.T) {
	sig := []byte("mut")
	dpi := NewSlimDPI(32, [][]byte{sig})
	sig[0] = 'X' // caller mutates their slice after construction
	if v, _ := dpi.Process(dpiPkt([]byte("mutable"))); v != Drop {
		t.Error("SlimDPI shared the caller's signature slice")
	}
}
