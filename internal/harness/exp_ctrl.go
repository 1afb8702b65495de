package harness

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "ctrl",
		Title:   "Fabric control plane: static vs ECMP vs ECMP+adaptive routing, failure reroute, hot-switch demotion",
		Paper:   "not a paper figure: §7's dynamic eviction policy and multi-hop vision driven fabric-wide by a telemetry-tick controller (ECMP hash groups, adaptive expiry, striping demotion)",
		Collect: collectCtrl,
	})
}

// staticRerouteNs is the static path's detection+programming delay in
// the failure comparison (the RerouteNs the scenario simulates).
const staticRerouteNs = 2e6

// failAt places the link failure a quarter into the (4x stretched)
// measurement window, so the outage and the recovery are both measured,
// offset from the controller's tick grid so the reported detection
// latency reflects a mid-interval failure.
func failAt(o Options) int64 {
	warmup, measure := o.opts().Windows()
	return warmup + measure + 100_000
}

// rerouteAfterNs is how long after the failure the controller's first
// reroute decision landed (0: it never rerouted).
func rerouteAfterNs(o Options, rep *scenario.Report) int64 {
	for _, d := range rep.Control.Decisions {
		if d.Kind == "reroute" {
			return d.AtNs - failAt(o)
		}
	}
	return 0
}

// collectCtrl runs the control-plane experiment family: the routing-mode
// comparison per parking-capable geometry (runs "ctrl-modes-LxS[control=…]"),
// the 6x3 link failure at identical offered load under static routing and
// under the ECMP+adaptive controller ("ctrl-failure[…]"), and the
// hot-switch demotion demo ("ctrl-demote").
func collectCtrl(o Options) (*Result, error) {
	res := &Result{}
	// The adaptive arm rebalances on congestion too: edge parking keeps
	// the return leg slim, so blind hashing can land a forward half-flow
	// on the up-link a full slim return stream already occupies — the
	// controller drains the hot member and converges back to the
	// engineered assignment (watch the "rebalance" decisions).
	adaptive := scenario.Control{ECMP: true, Adaptive: true, HotLinkPct: 90, ColdLinkPct: 60}

	// Part 1: routing comparison on both parking-capable geometries, edge
	// parking, 11 Gbps offered per source (past the 10 GbE fabric's
	// baseline saturation, inside the slim-packet envelope).
	for _, g := range [][2]int{{4, 2}, {6, 3}} {
		topo := fmt.Sprintf("%dx%d", g[0], g[1])
		grid, err := res.sweep(o, scenario.Sweep{
			Base: scenario.Scenario{
				Name:     "ctrl-modes-" + topo,
				Topology: scenario.LeafSpine{Leaves: g[0], Spines: g[1]},
				Parking:  scenario.Parking{Mode: sim.ParkEdge},
				Traffic:  scenario.Traffic{SendBps: 11e9},
				Opts:     o.opts(),
			},
			Axes: []scenario.Axis{scenario.ControlAxis(scenario.Control{}, scenario.Control{ECMP: true}, adaptive)},
		})
		if err != nil {
			return nil, err
		}
		t := res.table(fmt.Sprintf("routing comparison, %s leaf-spine, edge parking, 11 Gbps offered per source:", topo),
			"control\tgoodput(Gbps)\tvs static\tdrop%\thealthy\tavg lat(us)\tspine util%\tticks\tdecisions")
		for _, pt := range grid.Points {
			r := pt.Report
			ticks, decisions := 0, 0
			if r.Control != nil {
				ticks, decisions = r.Control.Ticks, len(r.Control.Decisions)
			}
			t.row("%s\t%.3f\t%s\t%.3f%%\t%t\t%.1f\t%.1f\t%d\t%d",
				pt.Labels[0], r.GoodputGbps, pct(r.GoodputGbps, grid.Points[0].Report.GoodputGbps),
				100*r.UnintendedDropRate, r.Healthy, r.AvgLatencyUs,
				avgUtil(r.Fabric.Links, "->spine"), ticks, decisions)
		}
	}

	// Part 2: the 6x3 link-failure scenario at identical offered load.
	// Static routing eats the full RerouteNs detection delay; the
	// controller reroutes at its next telemetry tick.
	var fail [2]*scenario.Report
	for i, ctl := range []scenario.Control{{}, adaptive} {
		var err error
		if fail[i], err = res.run(o, failureScenario(o, "ctrl-failure["+ctl.Label()+"]", failAt(o), staticRerouteNs, ctl)); err != nil {
			return nil, err
		}
	}
	st, ad := fail[0], fail[1]
	t := res.table("link failure + reroute (6x3, edge parking, 4.5 Gbps/source; fail flow 0's forward spine link):", "")
	t.note("  static routing:  reroute after %.2f ms, goodput %.3f Gbps, flow-0 phases %v",
		staticRerouteNs/1e6, st.GoodputGbps, st.Fabric.PhaseDelivered)
	t.note("  ecmp+adaptive:   reroute after %.2f ms, goodput %.3f Gbps, flow-0 phases %v",
		float64(rerouteAfterNs(o, ad))/1e6, ad.GoodputGbps, ad.Fabric.PhaseDelivered)
	t.note("  goodput gain: %+.2f%%; parking-safety violations (premature evictions): %d",
		100*(ad.GoodputGbps/st.GoodputGbps-1), st.Premature+ad.Premature)
	t.note("  controller: %d ticks, %d reroutes, %d expiry changes",
		ad.Control.Ticks, ad.Control.Reroutes, ad.Control.ExpiryChanges)

	// Part 3: hot-switch demotion. Every-hop striping with a small
	// parking table; periodic receive stalls back headers up at the NF,
	// in-flight payloads fill the spine tables, and the controller
	// demotes transit parking until the backlog drains.
	server := sim.DefaultServerModel()
	server.StallPeriodNs = 8e6
	server.StallNs = 3e6
	dem, err := res.run(o, scenario.Scenario{
		Name:     "ctrl-demote",
		Topology: scenario.LeafSpine{Leaves: 4, Spines: 2},
		Parking:  scenario.Parking{Mode: sim.ParkEveryHop, Slots: 128},
		Control:  scenario.Control{Adaptive: true, Conservative: 4, DemotePct: 60, RestorePct: 25},
		Traffic:  scenario.Traffic{SendBps: 8e9},
		Server:   server,
		Opts:     o.opts(),
	})
	if err != nil {
		return nil, err
	}
	d := dem.Control
	t = res.table("hot-switch demotion (4x2 every-hop striping, 128-slot tables, 3 ms receive stalls every 8 ms):", "")
	t.note("  %d ticks: %d demotions, %d restorations, %d expiry backoffs",
		d.Ticks, d.Demotions, d.Restorations, d.ExpiryChanges)
	const maxShown = 12
	for i, dec := range d.Decisions {
		if i == maxShown {
			t.note("  ... (%d more decisions)", len(d.Decisions)-maxShown)
			break
		}
		t.note("  %8.3f ms  %-8s %-8s %s", float64(dec.AtNs)/1e6, dec.Kind, dec.Target, dec.Detail)
	}
	return res, nil
}
