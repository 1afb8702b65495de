package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// boundaryCfg parks 160 bytes starting 64 bytes into the payload (§7
// variable decoupling boundary).
func boundaryCfg() Config {
	cfg := defaultCfg()
	cfg.BoundaryOffset = 64
	return cfg
}

func TestBoundarySplitLeavesPrefixVisible(t *testing.T) {
	sw, prog := testbed(t, boundaryCfg(), -1)
	orig := mkPkt(600, 1)
	want := orig.Clone()

	em := inject(sw, orig, portGen)
	if em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Fatal("boundary split failed")
	}
	pkt := em.Pkt
	// The first 64 payload bytes are still there, in front of the parked
	// region; the parked 160 bytes are gone.
	if !bytes.Equal(pkt.Payload[:64], want.Payload[:64]) {
		t.Error("visible prefix corrupted by split")
	}
	if !bytes.Equal(pkt.Payload[64:], want.Payload[64+BaseParkBytes:]) {
		t.Error("remainder after the parked region corrupted")
	}
	if pkt.PPOffset != 64 {
		t.Errorf("PP offset = %d, want 64", pkt.PPOffset)
	}
	// On the wire, the PP header sits after the visible prefix.
	frame := pkt.Serialize()
	reparsed, err := packet.ParseAt(frame, 64)
	if err != nil {
		t.Fatalf("reparse at boundary: %v", err)
	}
	if !reparsed.PP.Enabled || reparsed.PP.Tag != pkt.PP.Tag {
		t.Error("PP header lost at boundary offset")
	}
	if prog.C.Splits.Value() != 1 {
		t.Errorf("splits = %d", prog.C.Splits.Value())
	}
}

func TestBoundaryRoundTripIdentity(t *testing.T) {
	sw, prog := testbed(t, boundaryCfg(), -1)
	f := func(extra uint16, id uint16) bool {
		size := 42 + int(extra)%1459
		orig := mkPkt(size, id)
		want := orig.Clone()
		em := inject(sw, orig, portGen)
		if em == nil {
			return false
		}
		em2 := inject(sw, toSink(em.Pkt), portNF)
		if em2 == nil {
			return false
		}
		return bytes.Equal(em2.Pkt.Payload, want.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if prog.C.PrematureEvictions.Value() != 0 {
		t.Errorf("premature evictions: %d", prog.C.PrematureEvictions.Value())
	}
}

func TestBoundaryMinimumPayloadRaised(t *testing.T) {
	sw, prog := testbed(t, boundaryCfg(), -1)
	// Payload 200: enough for plain parking (160) but not for
	// offset 64 + 160 = 224 -> ENB=0.
	em := inject(sw, mkPkt(42+200, 1), portGen)
	if em == nil || em.Pkt.PP == nil || em.Pkt.PP.Enabled {
		t.Fatal("payload below offset+park must not split")
	}
	if prog.C.SmallPayloadSkips.Value() != 1 {
		t.Errorf("smallSkips = %d", prog.C.SmallPayloadSkips.Value())
	}
}

func TestBoundaryFramePath(t *testing.T) {
	sw, _ := testbed(t, boundaryCfg(), -1)
	orig := mkPkt(700, 2)
	want := orig.Clone()

	splitFrame, em, err := injectFrame(sw, orig.Serialize(), portGen)
	if err != nil || em == nil {
		t.Fatalf("frame split: %v", err)
	}
	// An NF-unaware parse sees the original first 64 payload bytes at the
	// front of its payload view — this is what makes Slim-DPI work on
	// split packets.
	nfView, err := packet.ParseAt(splitFrame, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nfView.Payload[:64], want.Payload[:64]) {
		t.Error("NF-visible prefix differs from the original payload prefix")
	}
	// Return the frame via the merge port; the switch parses the header
	// at the program's offset automatically.
	nfView.Eth.Src, nfView.Eth.Dst = nfMAC, sinkMAC
	mergedFrame, em2, err := injectFrame(sw, nfView.Serialize(), portNF)
	if err != nil || em2 == nil {
		t.Fatalf("frame merge: %v", err)
	}
	merged, err := packet.ParseAt(mergedFrame, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Payload, want.Payload) {
		t.Error("boundary frame path did not restore the payload")
	}
}

func TestBoundaryValidation(t *testing.T) {
	cfg := defaultCfg()
	cfg.BoundaryOffset = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative boundary accepted")
	}
	cfg.BoundaryOffset = MaxBoundaryOffset + 1
	if err := cfg.Validate(); err == nil {
		t.Error("oversized boundary accepted")
	}
	// Geometry conflicts between programs on one pipe are rejected.
	sw := NewSwitch("t")
	if _, err := sw.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 0, MergePort: 1, BoundaryOffset: 32}, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 2, MergePort: 3, BoundaryOffset: 0}, -1); err == nil {
		t.Error("boundary geometry conflict accepted")
	}
}

// TestBoundaryMergeAllocFree: a split at a §7 boundary moves the tail of
// the payload down over the parked bytes and leaves them as capacity
// behind it; the merge grows the payload back into that capacity and moves
// the tail up, so a round trip of a rebuilt 1,000 B packet allocates
// nothing and restores its payload.
func TestBoundaryMergeAllocFree(t *testing.T) {
	sw, prog := testbed(t, Config{Slots: 64, MaxExpiry: 1, SplitPort: portGen, MergePort: portNF, BoundaryOffset: 32}, -1)
	b := packet.NewBuilder(genMAC, nfMAC)
	pkt, id := b.UDP(flow, 1000, 1), uint16(1)
	batch, res := []BatchPacket{{Pkt: pkt}}, make([]BatchResult, 1)
	roundTrip := func() {
		id++
		b.UDPInto(pkt, flow, 1000, id)
		batch[0].In = portGen
		if sw.InjectBatch(batch, res); !res[0].OK || !pkt.PP.Enabled {
			t.Fatalf("split: ok=%t reason %q", res[0].OK, res[0].Reason)
		}
		toSink(pkt)
		batch[0].In = portNF
		if sw.InjectBatch(batch, res); !res[0].OK || pkt.PP != nil {
			t.Fatalf("merge: ok=%t reason %q", res[0].OK, res[0].Reason)
		}
	}
	roundTrip() // the first split creates the register chunk
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("a split and merge at boundary 32 allocate %.1f times, want 0", allocs)
	}
	if m := prog.C.Merges.Value(); m != 102 {
		t.Errorf("%d merges in 102 round trips", m)
	}
	if want := b.UDP(flow, 1000, id).Payload; !bytes.Equal(pkt.Payload, want) {
		t.Error("the merged payload differs from the one built")
	}
}

// TestTruncatedMergeIsACountedDrop: under the boundary-offset program
// (BenchmarkAblationBoundaryOffset's config) a validly tagged packet comes
// back from the NF with its payload cut shorter than the boundary. It used
// to panic in PHV.PrepareMergeBlocks (a make with cap < len). It must cost
// one counted drop with its own reason and free the slot — and a frame cut
// that short cannot even carry the PP header at its offset, so the frame
// path refuses it at parse and the slot waits for eviction. Either way
// splits = merges + evictions + explicit drops + truncated drops +
// occupancy.
func TestTruncatedMergeIsACountedDrop(t *testing.T) {
	sw, prog := testbed(t, Config{Slots: 8192, MaxExpiry: 1, SplitPort: portGen, MergePort: portNF, BoundaryOffset: 64}, -1)
	conserved := func(when string) {
		t.Helper()
		c := &prog.C
		freed := c.Merges.Value() + c.Evictions.Value() + c.ExplicitDrops.Value() + sw.Drops()[DropTruncatedMerge]
		if got := freed + uint64(prog.Occupancy()); got != c.Splits.Value() {
			t.Fatalf("%s: splits = %d but merges+evictions+drops+occupancy = %d (%v, drops %v)",
				when, c.Splits.Value(), got, c, sw.Drops())
		}
	}

	// Parsed packets through InjectBatch.
	em := inject(sw, mkPkt(882, 1), portGen)
	if em == nil || !em.Pkt.PP.Enabled {
		t.Fatal("split failed")
	}
	cut := toSink(em.Pkt)
	cut.Payload = cut.Payload[:10] // a truncating NF: 10 B < the 64 B boundary
	if em, why := injectTraced(sw, cut, portNF); em != nil || why != DropTruncatedMerge {
		t.Fatalf("truncated merge: emission %v, reason %q; want a %q drop", em, why, DropTruncatedMerge)
	}
	if n := sw.Drops()[DropTruncatedMerge]; n != 1 || prog.C.Merges.Value() != 0 || prog.C.PrematureEvictions.Value() != 0 {
		t.Errorf("drops[%q] = %d, counters %v; want one truncated drop and no merge", DropTruncatedMerge, n, &prog.C)
	}
	if prog.Occupancy() != 0 {
		t.Errorf("occupancy = %d after the truncated merge, want its slot freed", prog.Occupancy())
	}
	conserved("after the InjectBatch truncation")

	// A payload of exactly the boundary is whole: prefix + parked bytes.
	orig := mkPkt(882, 2)
	want := orig.Clone()
	em = inject(sw, orig, portGen)
	exact := toSink(em.Pkt)
	exact.Payload = exact.Payload[:64]
	if em = inject(sw, exact, portNF); em == nil || !bytes.Equal(em.Pkt.Payload, want.Payload[:64+BaseParkBytes]) {
		t.Fatal("a payload cut exactly at the boundary did not merge to prefix + parked bytes")
	}
	conserved("after the boundary-length merge")

	// Raw frames through a FrameBurst.
	splitFrame, em, err := injectFrame(sw, mkPkt(882, 3).Serialize(), portGen)
	if err != nil || em == nil {
		t.Fatalf("frame split: %v", err)
	}
	b := sw.NewFrameBurst(1)
	if err := b.Add(splitFrame[:packet.HeaderUnitLen+10], portNF); !errors.Is(err, packet.ErrTruncated) {
		t.Fatalf("truncated frame: Add = %v, want ErrTruncated (no PP header left at offset 64)", err)
	}
	if len(b.Run()) != 0 || sw.Drops()[dropParseError] != 1 || sw.Drops()[DropTruncatedMerge] != 1 {
		t.Errorf("drops = %v; want the truncated frame counted once as %q", sw.Drops(), dropParseError)
	}
	if prog.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want the refused frame's payload still parked", prog.Occupancy())
	}
	conserved("after the FrameBurst truncation")
}

// TestRoundTripEverySize: split -> NF MAC flip -> merge returns the
// generator's bytes for every size the datacenter mix can draw (42..1500:
// disabled-header small packets, and parked ones either side of the
// boundary threshold), with and without a boundary offset.
func TestRoundTripEverySize(t *testing.T) {
	for name, cfg := range map[string]Config{"offset 0": defaultCfg(), "offset 64": boundaryCfg()} {
		sw, prog := testbed(t, cfg, -1)
		for size := packet.HeaderUnitLen; size <= 1500; size++ {
			orig := mkFlowPkt(flowN(size), size, uint16(size))
			want := orig.Clone()
			em := inject(sw, orig, portGen)
			if em == nil {
				t.Fatalf("%s size %d: split dropped", name, size)
			}
			em = inject(sw, toSink(em.Pkt), portNF)
			if em == nil || em.Pkt.PP != nil || !bytes.Equal(em.Pkt.Payload, want.Payload) {
				t.Fatalf("%s size %d: round trip did not restore the payload", name, size)
			}
		}
		if prog.C.Splits.Value() == 0 || prog.C.Splits.Value() != prog.C.Merges.Value() || prog.C.SmallPayloadSkips.Value() == 0 {
			t.Errorf("%s: counters %v; want parked and small packets, every split merged", name, &prog.C)
		}
	}
}
