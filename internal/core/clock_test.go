package core

import (
	"errors"
	"testing"
)

// TestClockWrapsAndSkipsZero drives enough split-eligible packets through
// a tiny table to wrap the 16-bit generation clock and verifies (a) the
// clock never takes value 0 (a zeroed metadata cell must never validate a
// merge) and (b) split/merge keeps working across the wrap.
func TestClockWrapsAndSkipsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("drives >65536 packets")
	}
	cfg := defaultCfg()
	cfg.Slots = 8
	sw, prog := testbed(t, cfg, -1)

	const rounds = MaxClock + 512 // cross the wrap
	for i := 0; i < rounds; i++ {
		em := inject(sw, mkPkt(300, uint16(i)), portGen)
		if em == nil {
			t.Fatalf("packet %d dropped", i)
		}
		if em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
			t.Fatalf("packet %d did not split", i)
		}
		if em.Pkt.PP.Tag.Clock == 0 {
			t.Fatalf("packet %d assigned clock 0", i)
		}
		// Merge immediately (FIFO depth 1) so the table never fills.
		if m := inject(sw, toSink(em.Pkt), portNF); m == nil {
			t.Fatalf("packet %d failed to merge (clock %d)", i, i%MaxClock)
		}
	}
	if prog.C.Splits.Value() != rounds || prog.C.Merges.Value() != rounds {
		t.Errorf("splits=%d merges=%d, want %d", prog.C.Splits.Value(), prog.C.Merges.Value(), rounds)
	}
	if prog.C.PrematureEvictions.Value() != 0 {
		t.Errorf("premature evictions across clock wrap: %d", prog.C.PrematureEvictions.Value())
	}
}

// TestStaleMergeAfterSlotReuse: a merge arriving after its slot was
// evicted AND reclaimed by a new generation must be rejected by the
// generation check, not corrupt the new occupant.
func TestStaleMergeAfterSlotReuse(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 2
	cfg.MaxExpiry = 1
	sw, prog := testbed(t, cfg, -1)

	old := inject(sw, mkPkt(512, 0), portGen) // slot 1
	inject(sw, mkPkt(512, 1), portGen)        // slot 0
	// Wrap: evicts and re-claims slot 1 with a new generation.
	fresh := inject(sw, mkPkt(512, 2), portGen)
	if fresh == nil || fresh.Pkt.PP.Tag.TableIndex != old.Pkt.PP.Tag.TableIndex {
		t.Fatal("test topology assumption broken: expected same slot reuse")
	}
	if fresh.Pkt.PP.Tag.Clock == old.Pkt.PP.Tag.Clock {
		t.Fatal("generations must differ")
	}

	// The stale merge is dropped...
	if m := inject(sw, toSink(old.Pkt), portNF); m != nil {
		t.Fatal("stale merge accepted")
	}
	if prog.C.PrematureEvictions.Value() != 1 {
		t.Errorf("premature = %d", prog.C.PrematureEvictions.Value())
	}
	// ...and the new occupant still merges intact.
	if m := inject(sw, toSink(fresh.Pkt), portNF); m == nil {
		t.Fatal("fresh occupant lost its payload to a stale merge")
	}
}

// TestRegisterStateIsolation: payload blocks of concurrent occupants
// never bleed into each other, across every slot of a small table.
func TestRegisterStateIsolation(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 16
	cfg.MaxExpiry = 4
	sw, _ := testbed(t, cfg, -1)

	// Fill all slots with distinct payloads.
	ems := make([]*Emission, 16)
	wants := make([][]byte, 16)
	for i := range ems {
		p := mkPkt(512, uint16(1000+i))
		wants[i] = append([]byte(nil), p.Payload...)
		ems[i] = inject(sw, p, portGen)
		if ems[i] == nil || !ems[i].Pkt.PP.Enabled {
			t.Fatalf("slot-fill %d failed", i)
		}
	}
	// Merge in reverse order: every payload must come back intact even
	// though the FIFO assumption is violated (correctness never depends
	// on ordering, only performance does).
	for i := 15; i >= 0; i-- {
		m := inject(sw, toSink(ems[i].Pkt), portNF)
		if m == nil {
			t.Fatalf("merge %d dropped", i)
		}
		if string(m.Pkt.Payload) != string(wants[i]) {
			t.Fatalf("slot %d payload cross-contaminated", i)
		}
	}
}

// TestReissuedTagRejected: when Slots × MaxExpiry is a multiple of the
// clock's 65535-split period, a slot's re-claim gets the tag of the claim
// it evicted; Validate refuses exactly those pairs.
func TestReissuedTagRejected(t *testing.T) {
	for _, tc := range []struct {
		slots int
		exp   uint32
		bad   bool
	}{
		{65535, 1, true}, {13107, 5, true}, {4369, 30, true},
		{65536, 1, false}, {13107, 4, false}, {24285, 1, false}, {24285, 4368, false},
	} {
		cfg := defaultCfg()
		cfg.Slots, cfg.MaxExpiry = tc.slots, tc.exp
		if err := cfg.Validate(); errors.Is(err, ErrReissuedTag) != tc.bad {
			t.Errorf("Slots %d MaxExpiry %d: Validate() = %v, want reissue rejected %t", tc.slots, tc.exp, err, tc.bad)
		}
	}
}

// TestSetMaxExpiryStepsOffReissue: retuned to an Expiry whose re-claim
// would reissue the evicted claim's tag, the program steps one down, so
// the evicted packet's late merge is dropped as premature instead of
// taking the new occupant's payload.
func TestSetMaxExpiryStepsOffReissue(t *testing.T) {
	if testing.Short() {
		t.Skip("drives >50,000 packets")
	}
	cfg := defaultCfg()
	cfg.Slots = 13107 // 65535 / 5
	sw, prog := testbed(t, cfg, -1)
	prog.SetMaxExpiry(5)
	if got := prog.MaxExpiry(); got != 4 {
		t.Errorf("MaxExpiry() = %d after SetMaxExpiry(5), want 4", got)
	}
	old := inject(sw, mkPkt(512, 0), portGen)
	var fresh *Emission
	for i := 1; fresh == nil && i <= 6*cfg.Slots; i++ {
		em := inject(sw, mkPkt(512, uint16(i)), portGen)
		if em != nil && em.Pkt.PP.Enabled && em.Pkt.PP.Tag.TableIndex == old.Pkt.PP.Tag.TableIndex {
			fresh = em
		}
	}
	if fresh == nil {
		t.Fatal("the evicted slot was never re-claimed")
	}
	if fresh.Pkt.PP.Tag == old.Pkt.PP.Tag {
		t.Errorf("re-claim reissued the evicted tag %+v", old.Pkt.PP.Tag)
	}
	if m := inject(sw, toSink(old.Pkt), portNF); m != nil {
		t.Error("the evicted packet merged with the new occupant's payload")
	}
	if n := prog.C.PrematureEvictions.Value(); n != 1 {
		t.Errorf("premature evictions = %d, want 1", n)
	}
}
