package trafficgen

import (
	"bytes"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/pcap"
)

func TestWorkloadWriteAndReplay(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig(Datacenter{})
	if err := WriteWorkload(pcap.NewWriter(&buf), cfg, 500); err != nil {
		t.Fatal(err)
	}
	recs, err := pcap.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 500 {
		t.Fatalf("capture holds %d packets, want 500", len(recs))
	}

	newSrc := packet.MAC{2, 0, 0, 0, 0, 0xaa}
	newDst := packet.MAC{2, 0, 0, 0, 0, 0xbb}
	rp, err := NewReplay(recs, newSrc, newDst)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != 500 {
		t.Fatalf("replay len = %d", rp.Len())
	}

	// Replayed packets carry the rewritten MACs and the captured sizes.
	for i := 0; i < 500; i++ {
		p := rp.Next()
		if p.Eth.Src != newSrc || p.Eth.Dst != newDst {
			t.Fatal("MACs not rewritten")
		}
		if p.Len() != len(recs[i].Data) {
			t.Fatalf("packet %d size %d, capture %d", i, p.Len(), len(recs[i].Data))
		}
	}
	// Looping: packet 501 equals packet 1 (modulo clone identity).
	again := rp.Next()
	first, _ := packet.ParseAt(recs[0].Data, -1)
	if !bytes.Equal(again.Payload, first.Payload) {
		t.Error("replay did not loop to the start")
	}
}

func TestReplayClonesPackets(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWorkload(pcap.NewWriter(&buf), testConfig(Fixed(300)), 2); err != nil {
		t.Fatal(err)
	}
	recs, _ := pcap.ReadAll(&buf)
	rp, err := NewReplay(recs, packet.MAC{1}, packet.MAC{2})
	if err != nil {
		t.Fatal(err)
	}
	a := rp.Next()
	a.Payload[0] ^= 0xff // mutate, as the dataplane would
	rp.Next()
	b := rp.Next() // back to the first packet
	if a.Payload[0] == b.Payload[0] {
		t.Error("replay handed out shared packet state")
	}
}

func TestReplayRecyclesPackets(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWorkload(pcap.NewWriter(&buf), testConfig(Datacenter{}), 16); err != nil {
		t.Fatal(err)
	}
	recs, _ := pcap.ReadAll(&buf)
	rp, err := NewReplay(recs, packet.MAC{1}, packet.MAC{2})
	if err != nil {
		t.Fatal(err)
	}
	// A recycled packet's object backs the next clone; the bytes still
	// come from the capture, not from the retired packet's state.
	a := rp.Next()
	want := rp.pkts[1].Clone()
	a.Payload = append(a.Payload[:0], 0xde, 0xad)
	a.Eth.Dst = packet.MAC{9, 9, 9, 9, 9, 9}
	rp.Recycle(a)
	b := rp.Next()
	if b != a {
		t.Fatal("recycled packet object not reused")
	}
	if !bytes.Equal(b.Payload, want.Payload) || b.Eth.Dst != (packet.MAC{2}) {
		t.Error("reused packet not rebuilt from the capture")
	}

	// Steady-state replay with recycling allocates nothing.
	allocs := testing.AllocsPerRun(200, func() {
		rp.Recycle(rp.Next())
	})
	if allocs != 0 {
		t.Errorf("replay with recycling allocates %.1f/op, want 0", allocs)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	recs := []pcap.Record{{Data: []byte{1, 2, 3}}, {Data: nil}}
	if _, err := NewReplay(recs, packet.MAC{}, packet.MAC{}); err != ErrEmptyCapture {
		t.Errorf("err = %v, want ErrEmptyCapture", err)
	}
	// Mixed captures keep the parseable fraction.
	var buf bytes.Buffer
	WriteWorkload(pcap.NewWriter(&buf), testConfig(Fixed(200)), 3)
	good, _ := pcap.ReadAll(&buf)
	mixed := append([]pcap.Record{{Data: []byte{0xff}}}, good...)
	rp, err := NewReplay(mixed, packet.MAC{}, packet.MAC{})
	if err != nil || rp.Len() != 3 {
		t.Errorf("mixed capture: len=%v err=%v", rp, err)
	}
}
