package wire

import (
	"bytes"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// FuzzWireRoundTrip throws arbitrary datagram bytes at the frame parser
// exactly as a switch daemon receives them off the socket. Corrupt
// frames must be rejected with an error — never a panic — and any frame
// that parses must reserialize to a stable wire form: parse(serialize(p))
// succeeds and reserializes byte-identically. (The first parse may
// canonicalize lossy bits — e.g. the TCP data-offset nibble is fixed at
// 5 on output — so the fixpoint is asserted from the first reserialize
// onward, not against the raw input.)
func FuzzWireRoundTrip(f *testing.F) {
	ft := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	b := packet.NewBuilder(wGenMAC, wNFMAC)

	// Seed the corpus with every frame shape the daemons exchange:
	// plain UDP, TCP, a split frame with a PayloadPark header at the
	// default and a shifted decoupling boundary, and a header-compressed
	// frame.
	f.Add(b.UDP(ft, 512, 1).Serialize(), byte(0))
	tft := ft
	tft.Protocol = packet.IPProtoTCP
	f.Add(b.TCP(tft, 512, 7, 2).Serialize(), byte(0))
	pp := b.UDP(ft, 512, 3)
	pp.PP = &packet.PPHeader{Enabled: true, Tag: packet.Tag{TableIndex: 9, Clock: 4}.Seal()}
	f.Add(pp.Serialize(), byte(1))
	shifted := b.UDP(ft, 512, 4)
	shifted.PP = &packet.PPHeader{Enabled: true, Tag: packet.Tag{TableIndex: 2, Clock: 1}.Seal()}
	shifted.PPOffset = 8
	f.Add(shifted.Serialize(), byte(2))
	cr := b.UDP(ft, 128, 5)
	cr.SetCR(packet.CRHeader{Proto: packet.IPProtoUDP, Tag: packet.Tag{TableIndex: 3, Clock: 2}.Seal()})
	f.Add(cr.Serialize(), byte(0))
	f.Add([]byte{}, byte(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(1))

	f.Fuzz(func(t *testing.T, frame []byte, mode byte) {
		if len(frame) > MaxFrame {
			frame = frame[:MaxFrame]
		}
		// The PP offset is port knowledge, not frame bytes: fuzz the
		// three geometries the simulations use (none, 0, shifted).
		ppOffset := []int{-1, 0, 8}[int(mode)%3]
		p1, err := packet.ParseAt(frame, ppOffset)
		if err != nil {
			if p1 != nil {
				t.Fatalf("rejected frame returned a packet: %v", err)
			}
			return // corrupt input rejected cleanly
		}

		// Whatever parsed must reserialize...
		out1 := p1.Serialize()
		reOffset := -1
		if p1.PP != nil {
			reOffset = p1.PPOffset
		}
		// ...into a frame the receiving daemon can parse back...
		p2, err := packet.ParseAt(out1, reOffset)
		if err != nil {
			t.Fatalf("serialized frame does not re-parse (ppOffset=%d): %v\nframe: %x", reOffset, err, out1)
		}
		// ...reaching a stable wire form.
		if out2 := p2.Serialize(); !bytes.Equal(out1, out2) {
			t.Fatalf("round trip not a fixpoint:\nfirst:  %x\nsecond: %x", out1, out2)
		}
		if p2.Eth != p1.Eth {
			t.Fatalf("ethernet header drifted: %+v -> %+v", p1.Eth, p2.Eth)
		}
		if p1.CR == nil && p2.FiveTuple() != p1.FiveTuple() {
			t.Fatalf("five-tuple drifted: %+v -> %+v", p1.FiveTuple(), p2.FiveTuple())
		}
	})
}

// FuzzDatagram holds the datagram format to its two rules. Any bytes
// either decode into frames that tile them exactly or are rejected whole,
// and never panic the decoder. And the same bytes, cut into a list of
// frames of 1 to MaxFrame bytes (each length drawn from the bytes
// themselves), pack and unpack to the same frames in the same order.
func FuzzDatagram(f *testing.F) {
	f.Add(datagram([]byte{1, 2, 3}, bytes.Repeat([]byte{9}, 1500)))
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 5, 1})
	f.Add(append(datagram([]byte{1}), 7))
	f.Add(bytes.Repeat([]byte{0xff}, 300))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, ok := decodeDatagram(nil, data, DefaultBurst)
		switch {
		case !ok && len(frames) != 0:
			t.Fatalf("rejected datagram returned %d frames", len(frames))
		case ok && (len(frames) > DefaultBurst || !bytes.Equal(datagram(frames...), data)):
			t.Fatalf("%d frames do not tile the %d-byte datagram", len(frames), len(data))
		}

		var list [][]byte
		for rest := data; len(rest) > 0; {
			n := min(1+int(rest[0])*int(rest[len(rest)-1])%MaxFrame, len(rest))
			list, rest = append(list, rest[:n]), rest[n:]
		}
		got, ok := decodeDatagram(nil, datagram(list...), len(list))
		if !ok && len(list) > 0 || len(got) != len(list) {
			t.Fatalf("%d frames packed, %d unpacked (ok %t)", len(list), len(got), ok)
		}
		for i := range got {
			if !bytes.Equal(got[i], list[i]) {
				t.Fatalf("frame %d: %x, want %x", i, got[i], list[i])
			}
		}
	})
}
