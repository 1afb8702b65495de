package sim

import (
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// assertFabricInvariants checks the fabric-wide parked-slot accounting
// identity on every switch after a run: payloads still parked equals
// payloads parked minus merged minus evicted (premature evictions drop
// headers, not slots, so they do not appear; the fabric has no explicit
// drops). Orphans from failure scenarios stay on the left side, so the
// identity holds there too.
func assertFabricInvariants(t *testing.T, switches []SwitchStats) {
	t.Helper()
	for _, sw := range switches {
		outstanding := int64(sw.Splits) - int64(sw.Merges) - int64(sw.Evictions)
		if int64(sw.Occupancy) != outstanding {
			t.Errorf("%s: parked-slot accounting broken: occupancy=%d, splits-merges-evictions=%d",
				sw.Name, sw.Occupancy, outstanding)
		}
	}
}

// TestFabricSlotAccountingGoldenRuns re-runs the fabric golden
// configurations — edge, every-hop, the failure scenario, ECMP — and
// checks the slot-accounting identity on every switch of each.
func TestFabricSlotAccountingGoldenRuns(t *testing.T) {
	cfgs := map[string]leafSpineRun{
		"edge":     leafSpineSmoke(ParkEdge, 6),
		"everyhop": leafSpineSmoke(ParkEveryHop, 6),
		"failure": fabricRun(LeafSpine{Leaves: 6, Spines: 3, FailLink: true}, ParkEdge, 4e9,
			RunOptions{Seed: 3, WarmupNs: 2e6, MeasureNs: 10e6}),
	}
	ecmp := leafSpineSmoke(ParkEdge, 6)
	ecmp.Control.ECMP = true
	cfgs["ecmp"] = ecmp
	compress := leafSpineSmoke(ParkEdge, 6)
	compress.Program.Kind = "compress"
	cfgs["edge+compress"] = compress

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			res := cfg.run(t)
			assertFabricInvariants(t, res.Switches)
			var splits uint64
			for _, sw := range res.Switches {
				splits += sw.Splits
			}
			if splits == 0 {
				t.Fatal("nothing parked; the invariant check checked nothing")
			}
		})
	}
}

// TestFabricByteConservation drives fixed-size frames through a manually
// wired fabric switch running parking plus declarative compression and
// verifies byte conservation end to end: every packet delivered to the
// sink has shed its PayloadPark and compression headers and carries
// exactly the bytes the generator sent, even though the NF-facing hop
// saw only the slimmed remainder.
func TestFabricByteConservation(t *testing.T) {
	const frameLen = 512
	f := NewFabric()
	swn := f.AddSwitch("conserve")
	sw := swn.SW
	sw.AddL2Route(MACNF, portNF)
	sw.AddL2Route(MACSink, portSink)
	sw.AddL2Route(MACGen, portSink)

	park, err := sw.AttachPayloadPark(core.Config{
		Slots: 512, MaxExpiry: 1, SplitPort: portSplit, MergePort: portNF,
	}, -1)
	if err != nil {
		t.Fatalf("attach parking: %v", err)
	}
	compiled, err := prog.Compile(prog.HeaderCompressSpec(prog.CompressParams{
		Slots: 512, CompressPort: int(portSplit), RestorePort: int(portNF),
	}), nil)
	if err != nil {
		t.Fatalf("compile compression: %v", err)
	}
	comp, err := sw.AttachSpec(compiled, compiled.Ports(), nil, -1)
	if err != nil {
		t.Fatalf("attach compression: %v", err)
	}

	gen := trafficgen.New(trafficgen.Config{
		Sizes: trafficgen.Fixed(frameLen), Flows: 64,
		SrcMAC: MACGen, DstMAC: MACNF,
		DstIP: [4]byte{10, 9, 0, 1}, DstPort: 80, Seed: 7,
	})
	fail := func(p Parcel, why string) { t.Errorf("unintended drop: %s", why) }
	consumed := func(p Parcel) { t.Error("switch consumed a packet") }

	returnLink := f.NewLink("nf->sw", 10e9, 500, 1<<20, swn.Ingress(portNF, fail, consumed), fail)
	var slimmed, delivered int
	toNFLink := f.NewLink("sw->nf", 10e9, 500, 1<<20, func(p Parcel) {
		// The NF-facing hop must carry strictly less than the full frame
		// (parked payload and saved header bytes are both off the wire).
		if p.Pkt.Len() >= frameLen {
			t.Errorf("NF-link frame = %d B, want < %d", p.Pkt.Len(), frameLen)
		}
		slimmed++
		// Parcel-level MAC-swap NF.
		p.Pkt.Eth.Src, p.Pkt.Eth.Dst = p.Pkt.Eth.Dst, p.Pkt.Eth.Src
		returnLink.Send(p)
	}, fail)
	sinkLink := f.NewLink("sw->sink", 10e9, 500, 1<<20, func(p Parcel) {
		delivered++
		if p.Pkt.PP != nil {
			t.Error("delivered packet still carries a PayloadPark header")
		}
		if p.Pkt.CR != nil {
			t.Error("delivered packet still carries a compression header")
		}
		if got := p.Pkt.Len(); got != frameLen {
			t.Errorf("delivered frame = %d B, want %d (bytes not conserved)", got, frameLen)
		}
	}, fail)
	swn.SetOut(portNF, toNFLink)
	swn.SetOut(portSink, sinkLink)

	genLink := f.NewLink("gen->sw", 10e9, 500, 1<<20, swn.Ingress(portSplit, fail, consumed), fail)
	src := f.AddSource("gen", gen, genLink, 2e9)
	src.WindowStart, src.WindowEnd = 0, 4e6
	src.StopAt = 4e6
	src.Start(0)
	f.Run(6e6) // drain so every split finds its merge

	if delivered == 0 || slimmed == 0 {
		t.Fatalf("delivered=%d slimmed=%d, want traffic", delivered, slimmed)
	}
	// Slot accounting after drain: everything parked was reclaimed.
	c := &park.C
	outstanding := int64(c.Splits.Value()) - int64(c.Merges.Value()) -
		int64(c.Evictions.Value()) - int64(c.ExplicitDrops.Value())
	if got := int64(park.Occupancy()); got != outstanding {
		t.Errorf("parking occupancy = %d, counters say %d outstanding", got, outstanding)
	}
	if got := comp.Occupied(prog.RoleCompMeta); got != 0 {
		t.Errorf("%d compression contexts leaked after drain", got)
	}
	if c.Splits.Value() == 0 || comp.Counters()["compressions"] == 0 {
		t.Fatal("policies idle; conservation checked nothing")
	}
}

// TestSlotAccountingUnderPressure overdrives a small parking table so
// occupied skips and evictions all fire, then checks the full identity
// including the explicit-drop term: Occupancy == Splits − Merges −
// ExplicitDrops − Evictions.
func TestSlotAccountingUnderPressure(t *testing.T) {
	f := NewFabric()
	swn := f.AddSwitch("acct")
	sw := swn.SW
	sw.AddL2Route(MACNF, portNF)
	sw.AddL2Route(MACSink, portSink)
	sw.AddL2Route(MACGen, portSink)
	park, err := sw.AttachPayloadPark(core.Config{
		Slots: 64, MaxExpiry: 1, SplitPort: portSplit, MergePort: portNF,
	}, -1)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	gen := trafficgen.New(trafficgen.Config{
		Sizes: trafficgen.Fixed(512), Flows: 256,
		SrcMAC: MACGen, DstMAC: MACNF,
		DstIP: [4]byte{10, 9, 0, 2}, DstPort: 80, Seed: 9,
	})
	drop := func(p Parcel, _ string) {}
	returnLink := f.NewLink("nf->sw", 10e9, 500, 1<<20, swn.Ingress(portNF, drop, nil), drop)
	toNF := f.NewLink("sw->nf", 10e9, 500, 1<<20, func(p Parcel) {
		p.Pkt.Eth.Src, p.Pkt.Eth.Dst = p.Pkt.Eth.Dst, p.Pkt.Eth.Src
		returnLink.Send(p)
	}, drop)
	sink := f.NewLink("sw->sink", 10e9, 500, 1<<20, func(Parcel) {}, drop)
	swn.SetOut(portNF, toNF)
	swn.SetOut(portSink, sink)
	genLink := f.NewLink("gen->sw", 10e9, 500, 1<<20, swn.Ingress(portSplit, drop, nil), drop)
	// Overdrive a 64-slot table so occupied skips and evictions happen.
	src := f.AddSource("gen", gen, genLink, 8e9)
	src.WindowStart, src.WindowEnd = 0, 4e6
	src.StopAt = 4e6
	src.Start(0)
	f.Run(6e6)

	c := &park.C
	if c.Splits.Value() == 0 {
		t.Fatal("nothing parked")
	}
	want := int64(c.Splits.Value()) - int64(c.Merges.Value()) - int64(c.ExplicitDrops.Value()) - int64(c.Evictions.Value())
	if got := int64(park.Occupancy()); got != want {
		t.Errorf("occupancy = %d, counters say %d outstanding", got, want)
	}
}
