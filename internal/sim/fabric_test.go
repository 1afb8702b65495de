package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// leafSpineSmoke is a fast 4x2 configuration for tests.
func leafSpineSmoke(mode ParkMode, sendGbps float64) leafSpineRun {
	return fabricRun(LeafSpine{}, mode, sendGbps*1e9, RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 8e6})
}

// TestLeafSpineDeterministic: a fixed seed produces identical per-flow,
// per-link, and per-switch statistics, run to run — including the
// failure scenario's event timeline.
func TestLeafSpineDeterministic(t *testing.T) {
	for _, mode := range []ParkMode{ParkNone, ParkEdge, ParkEveryHop} {
		a := leafSpineSmoke(mode, 9).run(t)
		b := leafSpineSmoke(mode, 9).run(t)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("mode %s: identical configs diverged:\n%+v\n%+v", mode, a, b)
		}
	}
	mk := func() leafSpineRun {
		return fabricRun(LeafSpine{Leaves: 6, Spines: 3, FailLink: true}, ParkEdge, 4e9,
			RunOptions{Seed: 3, WarmupNs: 2e6, MeasureNs: 10e6})
	}
	a, b := mk().run(t), mk().run(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("failure scenario diverged:\n%+v\n%+v", a, b)
	}
	// And the seed genuinely matters.
	cfg := leafSpineSmoke(ParkEdge, 9)
	cfg.Opts.Seed = 2
	c := cfg.run(t)
	first := leafSpineSmoke(ParkEdge, 9).run(t)
	if reflect.DeepEqual(first.Flows, c.Flows) {
		t.Error("different seeds produced identical flows (suspicious)")
	}
}

// TestLeafSpineEdgeParking: below saturation, edge parking delivers the
// same header-unit goodput as the baseline while moving fewer bytes over
// every fabric hop, and all parked payloads are reclaimed.
func TestLeafSpineEdgeParking(t *testing.T) {
	base := leafSpineSmoke(ParkNone, 4).run(t)
	edge := leafSpineSmoke(ParkEdge, 4).run(t)
	assertFabricInvariants(t, base.Switches)
	assertFabricInvariants(t, edge.Switches)
	if !base.Healthy || !edge.Healthy {
		t.Fatalf("unhealthy below saturation: base=%+v edge=%+v", base, base.Healthy)
	}
	if d := edge.GoodputGbps/base.GoodputGbps - 1; d > 0.01 || d < -0.01 {
		t.Errorf("goodput diverged below saturation: base=%.3f edge=%.3f", base.GoodputGbps, edge.GoodputGbps)
	}
	for i := range edge.Flows {
		if edge.Flows[i].ToNFGbps >= base.Flows[i].ToNFGbps {
			t.Errorf("flow %d: edge toNF %.3f >= base %.3f (no bytes saved)",
				i, edge.Flows[i].ToNFGbps, base.Flows[i].ToNFGbps)
		}
	}
	for _, sw := range edge.Switches {
		switch sw.Name[0] {
		case 'l':
			if sw.Splits == 0 || sw.Splits != sw.Merges {
				t.Errorf("%s: splits=%d merges=%d, want equal and nonzero", sw.Name, sw.Splits, sw.Merges)
			}
			if sw.Occupancy != 0 {
				t.Errorf("%s: %d parked payloads leaked", sw.Name, sw.Occupancy)
			}
		case 's':
			if sw.Splits != 0 {
				t.Errorf("%s: spine split in edge mode", sw.Name)
			}
		}
	}
	// Fabric links carry slim packets: compare spine-hop bits.
	var baseBits, edgeBits uint64
	for i := range base.Links {
		if strings.Contains(base.Links[i].Name, "->spine") {
			baseBits += base.Links[i].TxBits
			edgeBits += edge.Links[i].TxBits
		}
	}
	if edgeBits >= baseBits {
		t.Errorf("edge parking did not slim the fabric hops: %d >= %d", edgeBits, baseBits)
	}
}

// TestLeafSpineEveryHopStripes: striping parks at the spine and the
// egress leaf too, so the NF-facing link carries fewer bytes than under
// edge parking, and the round trip still reclaims every slot.
func TestLeafSpineEveryHopStripes(t *testing.T) {
	edge := leafSpineSmoke(ParkEdge, 4).run(t)
	hop := leafSpineSmoke(ParkEveryHop, 4).run(t)
	assertFabricInvariants(t, hop.Switches)
	if !hop.Healthy {
		t.Fatalf("striping unhealthy below saturation: %+v", hop)
	}
	if d := hop.GoodputGbps/edge.GoodputGbps - 1; d > 0.01 || d < -0.01 {
		t.Errorf("striping changed header goodput below saturation: edge=%.3f hop=%.3f",
			edge.GoodputGbps, hop.GoodputGbps)
	}
	for i := range hop.Flows {
		if hop.Flows[i].ToNFGbps >= edge.Flows[i].ToNFGbps {
			t.Errorf("flow %d: everyhop NF link %.3f >= edge %.3f", i,
				hop.Flows[i].ToNFGbps, edge.Flows[i].ToNFGbps)
		}
	}
	for _, sw := range hop.Switches {
		if sw.Splits == 0 || sw.Splits != sw.Merges {
			t.Errorf("%s: splits=%d merges=%d, want equal and nonzero (striping parks at every hop)",
				sw.Name, sw.Splits, sw.Merges)
		}
		if sw.Occupancy != 0 {
			t.Errorf("%s: %d parked payloads leaked", sw.Name, sw.Occupancy)
		}
	}
}

// TestLeafSpineFailureReroute: the dead link blackholes flow 0 until the
// reroute lands; afterwards delivery resumes with no premature
// evictions, because the merge port pinned the untouched return path.
func TestLeafSpineFailureReroute(t *testing.T) {
	r := fabricRun(LeafSpine{Leaves: 6, Spines: 3, FailLink: true, FailAtNs: 5e6, RerouteNs: 1e6}, ParkEdge, 4e9,
		RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 12e6}).run(t)
	assertFabricInvariants(t, r.Switches)
	if r.PhaseDelivered[0] == 0 || r.PhaseDelivered[2] == 0 {
		t.Fatalf("no recovery: phases=%v", r.PhaseDelivered)
	}
	if r.PhaseDelivered[1] > r.PhaseDelivered[0]/10 {
		t.Errorf("outage did not blackhole flow 0: phases=%v", r.PhaseDelivered)
	}
	if n := totalPrematureStats(r); n != 0 {
		t.Errorf("reroute caused %d premature evictions; the alternate path must avoid merge ports", n)
	}
	if r.UnintendedDrops == 0 {
		t.Error("failure scenario recorded no drops")
	}
	// Only in-flight packets on the dead link orphan payloads; the orphans
	// sit at the ingress leaf awaiting expiry eviction.
	for _, sw := range r.Switches {
		if sw.Name != "leaf0" && sw.Occupancy != 0 {
			t.Errorf("%s: unexpected orphaned payloads: %d", sw.Name, sw.Occupancy)
		}
	}
}

func totalPrematureStats(r FabricResult) uint64 {
	var n uint64
	for _, s := range r.Switches {
		n += s.Premature
	}
	return n
}

// TestFabricDataplaneEquivalence: a chain of striping switches is
// equivalent to plain forwarding. Frames cross every hop as bytes through
// one-slot FrameBursts; each switch parks its own block behind the
// upstream switch's header (§7), the deepest switch's emission turns
// around as the NF would, and after the last merge the sink sees the
// original bytes — with every switch having parked and restored every
// packet, every round, on all four pipes.
func TestFabricDataplaneEquivalence(t *testing.T) {
	const packets, rounds = 64, 4
	for _, switches := range []int{2, 3} {
		chain := make([]*core.Switch, switches)
		bursts := make([]*core.FrameBurst, switches)
		for k := range chain {
			sw := core.NewSwitch(fmt.Sprintf("fab%d", k))
			for pipe := 0; pipe < core.NumPipes; pipe++ {
				base := rmt.PortID(pipe * core.PortsPerPipe)
				sw.AddL2Route(packet.MAC{2, 0, 0, 0, byte(pipe), 2}, base+1)
				sinkPort := base // downstream switches return toward the upstream one
				if k == 0 {
					sinkPort = base + 2
				}
				sw.AddL2Route(packet.MAC{2, 0, 0, 0, byte(pipe), 3}, sinkPort)
				if _, err := sw.AttachPayloadPark(core.Config{
					Slots: 1024, MaxExpiry: 1, SplitPort: base, MergePort: base + 1,
				}, -1); err != nil {
					t.Fatal(err)
				}
			}
			chain[k], bursts[k] = sw, sw.NewFrameBurst(1)
		}
		hop := func(k int, frame []byte, in rmt.PortID) []byte {
			fb := bursts[k]
			fb.Reset()
			if err := fb.Add(frame, in); err != nil {
				t.Fatalf("chain %d: switch %d port %d: %v", switches, k, in, err)
			}
			r := &fb.Run()[0]
			if !r.OK {
				t.Fatalf("chain %d: switch %d port %d dropped: %s", switches, k, in, r.Reason)
			}
			return r.Em.Pkt.Serialize()
		}
		for pipe := 0; pipe < core.NumPipes; pipe++ {
			base := rmt.PortID(pipe * core.PortsPerPipe)
			sinkMAC := packet.MAC{2, 0, 0, 0, byte(pipe), 3}
			gen := trafficgen.New(trafficgen.Config{
				Sizes: trafficgen.Fixed(882), Flows: 256,
				SrcMAC: MACGen, DstMAC: packet.MAC{2, 0, 0, 0, byte(pipe), 2},
				DstIP: packet.IPv4Addr{10, 3, byte(pipe), 9}, DstPort: 80, Seed: 7 + int64(pipe),
			})
			for i := 0; i < packets; i++ {
				orig := gen.Next().Serialize()
				want := append([]byte(nil), orig...)
				copy(want[0:6], sinkMAC[:])
				for r := 0; r < rounds; r++ {
					frame := orig
					for k := 0; k < switches; k++ {
						frame = hop(k, frame, base)
					}
					copy(frame[0:6], sinkMAC[:])
					for k := switches - 1; k >= 0; k-- {
						frame = hop(k, frame, base+1)
					}
					if !bytes.Equal(frame, want) {
						t.Fatalf("chain %d pipe %d packet %d round %d: sink frame differs from the original", switches, pipe, i, r)
					}
				}
			}
		}
		for k, sw := range chain {
			var splits, merges uint64
			for _, p := range sw.Programs() {
				splits += p.C.Splits.Value()
				merges += p.C.Merges.Value()
			}
			if want := uint64(core.NumPipes * packets * rounds); splits != want || merges != want {
				t.Errorf("chain %d switch %d: splits=%d merges=%d, want %d each (every switch parks every packet every round)",
					switches, k, splits, merges, want)
			}
		}
	}
}

// TestLeafSpineGeometryValidation: invalid parking geometries are
// rejected with a diagnostic rather than silently corrupting flows.
func TestLeafSpineGeometryValidation(t *testing.T) {
	expectError := func(name string, l LeafSpine) {
		r := fabricRun(l, ParkEdge, 1e9, RunOptions{})
		if _, err := runTopology(&r.LeafSpine, &r.Sections, r.Wiring); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// 4x3: flow 3's affinity collides with leaf 0's merge port.
	expectError("4x3", LeafSpine{Leaves: 4, Spines: 3})
	// Failure reroute with two spines would land on a merge port.
	expectError("fail-2spines", LeafSpine{FailLink: true})
}
