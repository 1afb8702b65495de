package harness

import (
	"fmt"
	"strings"

	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "fabric",
		Title:   "Leaf-spine fabric: park-at-edge vs park-at-every-hop, link-failure reroute",
		Paper:   "not a paper figure: §7's multi-switch vision (striping, distributed memory pressure) played out on a 4x2 leaf-spine with per-hop stats",
		Collect: collectFabric,
	})
}

// avgUtil averages the utilization of links whose name contains pat.
func avgUtil(links []sim.LinkStats, pat string) float64 {
	var sum float64
	var n int
	for _, l := range links {
		if strings.Contains(l.Name, pat) {
			sum += l.UtilPct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// collectFabric runs the fabric experiment family: the parking-mode
// comparison on the 4x2 leaf-spine (a declarative ParkingAxis sweep at a
// load past baseline fabric saturation) and the link-failure reroute
// scenario.
func collectFabric(o Options) (*Result, error) {
	res := &Result{}
	// Part 1: parking modes at 11 Gbps offered per source — past the
	// 10 GbE fabric's baseline saturation, inside the slim-packet
	// envelope. One ParkingAxis sweep; the grid runs in parallel.
	grid, err := res.sweep(o, scenario.Sweep{
		Base: scenario.Scenario{
			Name:     "fabric-modes",
			Topology: scenario.LeafSpine{Leaves: 4, Spines: 2},
			Traffic:  scenario.Traffic{SendBps: 11e9},
			Opts:     o.opts(),
		},
		Axes: []scenario.Axis{
			scenario.ParkingAxis(sim.ParkNone, sim.ParkEdge, sim.ParkEveryHop),
		},
	})
	if err != nil {
		return nil, err
	}
	t := res.table("parking modes, 4x2 leaf-spine, 10GbE, datacenter mix, 11 Gbps offered per source:",
		"mode\tgoodput(Gbps)\tvs base\tdrop%\thealthy\tavg lat(us)\tspine util%\tnf-link util%\tsplits/switch")
	for _, pt := range grid.Points {
		r := pt.Report
		var perSwitch []string
		for _, s := range r.Fabric.Switches {
			perSwitch = append(perSwitch, fmt.Sprintf("%d", s.Splits))
		}
		t.row("%s\t%.3f\t%s\t%.3f%%\t%t\t%.1f\t%.1f\t%.1f\t%s",
			r.Mode, r.GoodputGbps, pct(r.GoodputGbps, grid.Points[0].Report.GoodputGbps),
			100*r.UnintendedDropRate, r.Healthy, r.AvgLatencyUs,
			avgUtil(r.Fabric.Links, "->spine"), avgUtil(r.Fabric.Links, "->nf"),
			strings.Join(perSwitch, "/"))
	}

	// Part 2: link failure + reroute. Parking-safe reroute needs a third
	// spine (the alternate path must not arrive on the egress leaf's
	// merge port), so this part runs 6x3.
	rep, err := res.run(o, failureScenario(o, "fabric-failure", 0, 2e6, scenario.Control{}))
	if err != nil {
		return nil, err
	}
	fr := rep.Fabric
	var linkDrops, switchDrops uint64
	for _, l := range fr.Links {
		linkDrops += l.Drops + l.Lost
	}
	var orphans int
	for _, s := range fr.Switches {
		switchDrops += s.Drops
		orphans += s.Occupancy
	}
	t = res.table("link failure + reroute (6x3, edge parking, 4.5 Gbps/source; fail flow 0's forward spine link, reroute 2.0 ms later):", "")
	t.note("  flow 0 NF deliveries: pre-fail=%d outage=%d post-reroute=%d",
		fr.PhaseDelivered[0], fr.PhaseDelivered[1], fr.PhaseDelivered[2])
	t.note("  drops: links=%d switches=%d (blackholed during detection); premature evictions=%d",
		linkDrops, switchDrops, rep.Premature)
	t.note("  orphaned parked payloads at run end: %d (reclaimed by expiry eviction as the index wraps)", orphans)
	return res, nil
}

// failureScenario is the 6x3 link-failure run (edge parking, 4.5 Gbps per
// source, a stretched window): flow 0's forward spine link fails at
// failAtNs (0: a quarter into the window) and static routes follow
// rerouteNs later.
func failureScenario(o Options, name string, failAtNs, rerouteNs int64, ctl scenario.Control) scenario.Scenario {
	return scenario.Scenario{
		Name:     name,
		Topology: scenario.LeafSpine{Leaves: 6, Spines: 3, FailLink: true, FailAtNs: failAtNs, RerouteNs: rerouteNs},
		Parking:  scenario.Parking{Mode: sim.ParkEdge},
		Control:  ctl,
		Traffic:  scenario.Traffic{SendBps: 4.5e9},
		Opts:     o.stretched(4),
	}
}
