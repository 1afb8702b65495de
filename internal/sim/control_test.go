package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// TestPlantOccupancyIsTheRegisterScan: the plant reports parked payloads
// from the program's registers. A truncated merge frees its slot but is
// counted only in the switch's drop reasons, so any difference of the
// program counters (splits - merges - evictions - explicit drops) would
// still count it as parked.
func TestPlantOccupancyIsTheRegisterScan(t *testing.T) {
	s := Sections{Parking: Parking{Mode: ParkEdge, Slots: 64, MaxExpiry: 1, BoundaryOffset: 64}}
	g := SingleSwitchGraph("plant", s, []rmt.PortID{0}, false)
	sws, err := g.RealiseAll()
	if err != nil {
		t.Fatal(err)
	}
	sw, prog := sws[0], sws[0].Programs()[0]
	b := packet.NewBuilder(MACGen, MACNF)
	flow := packet.FiveTuple{SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9}, SrcPort: 5000, DstPort: 80, Protocol: 17}
	split := func(id uint16) *core.Emission {
		em := inject(sw, b.UDP(flow, 882, id), groupGen)
		if em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
			t.Fatalf("packet %d did not park", id)
		}
		return em
	}
	// A truncating NF returns the first packet with 10 B of payload, short
	// of the 64 B boundary; the second packet stays parked.
	cut := split(1).Pkt
	cut.Eth.Src, cut.Eth.Dst = MACNF, MACSink
	cut.Payload = cut.Payload[:10]
	if inject(sw, cut, groupNF) != nil || sw.Drops()[core.DropTruncatedMerge] != 1 {
		t.Fatalf("truncated merge not dropped: drops %v", sw.Drops())
	}
	split(2)

	var tel ctrl.Telemetry
	NewPlant(g, sws, func(_ int, fn func()) { fn() }, nil).ReadTelemetry(&tel)
	if got := tel.Switches[0].Occupancy; got != prog.Occupancy() || got != 1 {
		t.Errorf("plant occupancy = %d, register scan = %d, want 1 (counters %v)", got, prog.Occupancy(), &prog.C)
	}
}

// ecmpSmoke is a 6x3 fabric with hash-group routing (a controller owns
// the groups' membership); enable Control.Adaptive for the parking policy
// too.
func ecmpSmoke(mode ParkMode, sendGbps float64) leafSpineRun {
	r := fabricRun(LeafSpine{Leaves: 6, Spines: 3}, mode, sendGbps*1e9, RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 10e6})
	r.Control.ECMP = true
	return r
}

func linkTx(r FabricResult, name string) uint64 {
	for _, l := range r.Links {
		if l.Name == name {
			return l.TxPackets
		}
	}
	return 0
}

// TestLeafSpineECMPSpreadsFlows: with hash-group routing, an ingress
// leaf's forward traffic uses every parking-safe uplink, not just the
// flow's static affinity spine — and end-to-end behaviour stays healthy.
func TestLeafSpineECMPSpreadsFlows(t *testing.T) {
	static := ecmpSmoke(ParkEdge, 4)
	static.Control.ECMP = false
	s := static.run(t)
	e := ecmpSmoke(ParkEdge, 4).run(t)

	if !e.Healthy {
		t.Fatalf("ECMP run unhealthy: drop=%.5f", e.UnintendedDropRate)
	}
	if d := e.GoodputGbps/s.GoodputGbps - 1; d > 0.02 || d < -0.02 {
		t.Errorf("ECMP goodput diverged from static below saturation: %.3f vs %.3f",
			e.GoodputGbps, s.GoodputGbps)
	}
	// Flow 0 (leaf0 -> nf1): parking-safe members are spine0 and spine2
	// (spine1 is leaf1's merge spine). Static forward traffic rides
	// spine0 only; ECMP spreads it over both. spine2->leaf1 carries no
	// return traffic (flow 1's headers return via its own merge spine),
	// so it isolates the forward path.
	if tx := linkTx(s, "spine2->leaf1"); tx != 0 {
		t.Errorf("static run sent %d forward packets over the non-affinity spine", tx)
	}
	for _, ln := range []string{"spine0->leaf1", "spine2->leaf1"} {
		if linkTx(e, ln) == 0 {
			t.Errorf("ECMP run left %s idle; flows not spread", ln)
		}
	}
	// Baseline (no parking) may additionally use the merge spine.
	b := ecmpSmoke(ParkNone, 4).run(t)
	if linkTx(b, "spine1->leaf1") == 0 {
		t.Error("baseline ECMP should use all three spines toward leaf1")
	}
}

// TestLeafSpineECMPDeterministic pins the sweep-facing guarantee: same
// seed, same config => byte-identical FabricResult, including the
// flow->path assignment the link counters encode.
func TestLeafSpineECMPDeterministic(t *testing.T) {
	mk := func() leafSpineRun {
		cfg := ecmpSmoke(ParkEdge, 5)
		cfg.Control.Adaptive = true
		return cfg
	}
	a, b := mk().run(t), mk().run(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical ECMP configs diverged:\n%+v\n%+v", a, b)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Error("ECMP results not byte-identical across runs")
	}
}

// TestLeafSpineECMPControllerReroute is the tentpole's acceptance
// scenario: on the 6x3 link failure, the ECMP+adaptive controller
// detects the dead spine at its next telemetry tick and rewrites the
// hash group — recovering far faster than the static 2 ms reroute, with
// zero parking-safety violations (no premature evictions anywhere,
// orphans only at the ingress leaf whose in-flight packets died).
func TestLeafSpineECMPControllerReroute(t *testing.T) {
	mk := func(cc ctrl.Config) leafSpineRun {
		r := fabricRun(LeafSpine{Leaves: 6, Spines: 3, FailLink: true, FailAtNs: 6e6, RerouteNs: 2e6}, ParkEdge, 4.5e9,
			RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 16e6})
		r.Control = cc
		return r
	}
	static := mk(ctrl.Config{}).run(t)
	ctl := mk(ctrl.Config{ECMP: true, Adaptive: true}).run(t)

	if ctl.Control == nil || ctl.Control.Ticks == 0 {
		t.Fatal("controller did not run")
	}
	// The reroute decision lands within one tick period of the failure.
	var reroute *ctrl.Decision
	for i := range ctl.Control.Decisions {
		if ctl.Control.Decisions[i].Kind == "reroute" {
			reroute = &ctl.Control.Decisions[i]
			break
		}
	}
	if reroute == nil {
		t.Fatalf("no reroute decision: %+v", ctl.Control.Decisions)
	}
	// Detection latency is at most one tick period (a tick scheduled at
	// the failure instant runs after the failure event — same timestamp,
	// later sequence number).
	period := ctl.Control.PeriodNs
	if reroute.AtNs < 6e6 || reroute.AtNs > 6e6+period {
		t.Errorf("reroute at %d ns, want within one %d ns tick of the 6e6 failure", reroute.AtNs, period)
	}

	// Parking safety: zero premature evictions in both runs, orphans only
	// at the ingress leaf.
	for name, r := range map[string]FabricResult{"static": static, "ecmp+ctrl": ctl} {
		if n := totalPrematureStats(r); n != 0 {
			t.Errorf("%s: %d premature evictions (parking-safety violation)", name, n)
		}
		for _, sw := range r.Switches {
			if sw.Name != "leaf0" && sw.Occupancy != 0 {
				t.Errorf("%s: %s stranded %d payloads", name, sw.Name, sw.Occupancy)
			}
		}
	}

	// Sub-tick detection beats the 2 ms static reroute on delivered
	// goodput at the same offered load.
	if ctl.GoodputGbps <= static.GoodputGbps {
		t.Errorf("ECMP+adaptive goodput %.4f <= static %.4f", ctl.GoodputGbps, static.GoodputGbps)
	}
	// And the outage phase (static reroute window) barely dents flow 0.
	if ctl.PhaseDelivered[1] <= static.PhaseDelivered[1] {
		t.Errorf("outage-phase deliveries: ecmp+ctrl %d <= static %d",
			ctl.PhaseDelivered[1], static.PhaseDelivered[1])
	}
}

func TestLeafSpineECMPRejectsEveryHop(t *testing.T) {
	cfg := ecmpSmoke(ParkEveryHop, 2)
	if _, err := runTopology(&cfg.LeafSpine, &cfg.Sections, cfg.Wiring); err == nil {
		t.Error("ECMP + ParkEveryHop accepted")
	}
}

// TestTestbedAdaptiveControlTimeline wires the single-switch adaptive
// evictor through the controller: a tiny parking table under load wraps
// before headers return, premature evictions spike, and the controller's
// backoff decisions land in Result.Control.
func TestTestbedAdaptiveControlTimeline(t *testing.T) {
	// Periodic 2 ms receive stalls against a table that wraps in ~0.6 ms:
	// payloads are evicted before their stalled headers return (the
	// Fig. 14 effect), until the controller backs the Expiry off.
	server := DefaultServerModel()
	server.StallPeriodNs = 4e6
	server.StallNs = 2e6
	cfg := testbedRun{
		Testbed: Testbed{LinkBps: 10e9},
		Sections: Sections{
			Name:    "adaptive",
			Parking: Parking{Mode: ParkEdge, Slots: 512, MaxExpiry: 1},
			Control: ctrl.Config{Adaptive: true, Conservative: 12},
			Traffic: Traffic{SendBps: 6e9, Dist: trafficgen.Datacenter{}},
			Server:  server,
			Chain:   chainFWNAT,
			Opts:    RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 10e6},
		},
	}
	res := cfg.run(t)
	if res.Control == nil {
		t.Fatal("no control report")
	}
	if res.Control.Ticks < 10 {
		t.Fatalf("controller barely ticked: %d", res.Control.Ticks)
	}
	if res.Premature == 0 {
		t.Fatal("test setup failed to provoke premature evictions")
	}
	if res.Control.ExpiryChanges == 0 || len(res.Control.Decisions) == 0 {
		t.Fatalf("controller never reacted: %+v", res.Control)
	}
	if res.Control.Decisions[0].Kind != "backoff" {
		t.Errorf("first decision = %q, want backoff", res.Control.Decisions[0].Kind)
	}

	// Without a program (baseline) there is nothing to retune: an error
	// naming the field, not a run that silently drops the controller.
	cfg.Parking.Mode = ParkNone
	if _, err := runTopology(&cfg.Testbed, &cfg.Sections, cfg.Wiring); err == nil || !strings.Contains(err.Error(), "control.adaptive needs parking") {
		t.Errorf("adaptive baseline run: err = %v", err)
	}
}
