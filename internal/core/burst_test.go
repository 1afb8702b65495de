package core

import (
	"bytes"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// TestFrameBurstMatchesInjectBatch drives the same frame sequence through
// FrameBurst in bursts of 8 (slot scratch, in-place headroom merge) and,
// one at a time, through the packet-level entry (ParseAt + a batch of
// one + Serialize) on identically configured switches: emitted bytes and
// program counters must agree — bursting and slot reuse are an
// optimization, not a semantic change.
func TestFrameBurstMatchesInjectBatch(t *testing.T) {
	mkSwitch := func() (*Switch, *Program) {
		s := NewSwitch("burst")
		prog, err := s.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1)
		if err != nil {
			t.Fatal(err)
		}
		genMAC := packet.MAC{2, 0, 0, 0, 0, 1}
		nfMAC := packet.MAC{2, 0, 0, 0, 0, 2}
		s.AddL2Route(nfMAC, 1)
		s.AddL2Route(genMAC, 0)
		return s, prog
	}
	flow := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	b := packet.NewBuilder(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	// Sizes straddle the park threshold so splits, small-payload skips and
	// slot reuse all occur.
	var frames [][]byte
	for i := 0; i < 48; i++ {
		frames = append(frames, b.UDP(flow, 120+i*40, uint16(i)).Serialize())
	}

	// Reference: one frame at a time through the packet-level entry,
	// split frames bounced back in on the merge port (NF round trip
	// elided — the switch sees the same byte sequence either way).
	refSw, refProg := mkSwitch()
	ref := func(in [][]byte, port rmt.PortID) [][]byte {
		var outs [][]byte
		for _, f := range in {
			pkt, err := packet.ParseAt(f, refSw.PPOffset(port))
			if err != nil {
				t.Fatal(err)
			}
			if em := inject(refSw, pkt, port); em != nil {
				outs = append(outs, em.Pkt.Serialize())
			}
		}
		return outs
	}
	refOut := ref(frames, 0)
	refMerged := ref(refOut, 1)

	// Batched: same frames through FrameBurst in bursts of 8.
	bSw, bProg := mkSwitch()
	burst := bSw.NewFrameBurst(8)
	run := func(in [][]byte, port rmt.PortID) [][]byte {
		var outs [][]byte
		for at := 0; at < len(in); at += burst.Cap() {
			end := at + burst.Cap()
			if end > len(in) {
				end = len(in)
			}
			burst.Reset()
			for _, f := range in[at:end] {
				if err := burst.Add(f, port); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range burst.Run() {
				if r.OK {
					outs = append(outs, r.Em.Pkt.AppendSerialize(nil))
				}
			}
		}
		return outs
	}
	bOut := run(frames, 0)
	bMerged := run(bOut, 1)

	for _, side := range []struct {
		name      string
		got, want [][]byte
	}{{"split", bOut, refOut}, {"merge", bMerged, refMerged}} {
		if len(side.got) != len(side.want) {
			t.Fatalf("%s-side emissions: burst %d, reference %d", side.name, len(side.got), len(side.want))
		}
		for i := range side.got {
			if !bytes.Equal(side.got[i], side.want[i]) {
				t.Errorf("%s frame %d differs between burst and per-packet paths", side.name, i)
			}
		}
	}
	if got, want := bProg.C.String(), refProg.C.String(); got != want {
		t.Errorf("counters diverge:\n  burst: %s\n  ref:   %s", got, want)
	}
}
