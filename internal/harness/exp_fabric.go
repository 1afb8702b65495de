package harness

import (
	"fmt"
	"io"
	"strings"

	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func init() {
	register(experiment(Experiment{
		ID:    "fabric",
		Title: "Leaf-spine fabric: park-at-edge vs park-at-every-hop, link-failure reroute",
		Paper: "not a paper figure: §7's multi-switch vision (striping, distributed memory pressure) played out on a 4x2 leaf-spine with per-hop stats",
	}, func(o Options) (*FabricSuite, error) {
		return CollectFabricSuite(o, "4x2")
	}, RenderFabricSuite))
}

// FabricSuite bundles the fabric experiment family's results in a
// machine-readable form (ppbench -json writes it to a BENCH artifact).
type FabricSuite struct {
	Topology string `json:"topology"`
	// Modes holds the baseline/edge/everyhop comparison runs.
	Modes []sim.FabricResult `json:"modes"`
	// Failure is the 6x3 link-failure reroute run (edge parking).
	Failure sim.FabricResult `json:"failure"`
}

// ParseTopology parses "LxS" (e.g. "4x2") into leaf and spine counts and
// rejects geometries the parking modes cannot run (sim.CheckLeafSpine,
// checked for a pinned merge port).
func ParseTopology(s string) (leaves, spines int, err error) {
	// Zero would read as "default" downstream, so it is a parse error here.
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &leaves, &spines); err != nil || leaves == 0 || spines == 0 {
		return 0, 0, fmt.Errorf("harness: topology %q: want LxS, e.g. 4x2", s)
	}
	if err := sim.CheckLeafSpine(leaves, spines, true); err != nil {
		return 0, 0, fmt.Errorf("harness: topology %w", err)
	}
	return leaves, spines, nil
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

func sumDrops(r sim.FabricResult) (links, switches uint64) {
	for _, l := range r.Links {
		links += l.Drops + l.Lost
	}
	for _, s := range r.Switches {
		switches += s.Drops
	}
	return
}

// CollectFabricSuite runs the fabric experiment family on the given LxS
// topology: the parking-mode comparison (a declarative ParkingAxis sweep
// at a load past baseline fabric saturation) and the link-failure reroute
// scenario.
func CollectFabricSuite(o Options, topo string) (*FabricSuite, error) {
	leaves, spines, err := ParseTopology(topo)
	if err != nil {
		return nil, err
	}
	out := &FabricSuite{Topology: topo}

	// Part 1: parking modes at 11 Gbps offered per source — past the
	// 10 GbE fabric's baseline saturation, inside the slim-packet
	// envelope. One ParkingAxis sweep; the grid runs in parallel.
	grid, err := runSweep(o, scenario.Sweep{
		Base: scenario.Scenario{
			Name:     "fabric-modes",
			Topology: scenario.LeafSpine{Leaves: leaves, Spines: spines},
			Traffic:  scenario.Traffic{SendBps: 11e9},
			Opts:     o.scnOpts(),
		},
		Axes: []scenario.Axis{
			scenario.ParkingAxis(sim.ParkNone, sim.ParkEdge, sim.ParkEveryHop),
		},
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range grid.Points {
		if pt.Err != "" {
			return nil, fmt.Errorf("harness: fabric mode %v: %s", pt.Labels, pt.Err)
		}
		out.Modes = append(out.Modes, *pt.Report.Fabric)
	}

	// Part 2: link failure + reroute. Parking-safe reroute needs a third
	// spine (the alternate path must not arrive on the egress leaf's
	// merge port), so this part runs 6x3 regardless of topo.
	fr, err := run(o, scenario.Scenario{
		Name:     "fabric-failure",
		Topology: scenario.LeafSpine{Leaves: 6, Spines: 3, FailLink: true, RerouteNs: 2e6},
		Parking:  scenario.Parking{Mode: sim.ParkEdge},
		Traffic:  scenario.Traffic{SendBps: 4.5e9},
		Opts: scenario.RunOptions{
			Seed: o.Seed, WarmupNs: o.warmup(), MeasureNs: 4 * o.measure(),
		},
	})
	if err != nil {
		return nil, err
	}
	out.Failure = *fr.Fabric
	return out, nil
}

func RenderFabricSuite(suite *FabricSuite, w io.Writer) error {
	fmt.Fprintf(w, "parking modes, %s leaf-spine, 10GbE, datacenter mix, 11 Gbps offered per source:\n", suite.Topology)
	tw := newTable(w)
	fmt.Fprintln(tw, "mode\tgoodput(Gbps)\tvs base\tdrop%\thealthy\tavg lat(us)\tspine util%\tnf-link util%\tsplits/switch")
	var base float64
	for i, r := range suite.Modes {
		if i == 0 {
			base = r.GoodputGbps
		}
		var perSwitch []string
		for _, s := range r.Switches {
			perSwitch = append(perSwitch, fmt.Sprintf("%d", s.Splits))
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.3f%%\t%t\t%.1f\t%.1f\t%.1f\t%s\n",
			r.Mode, r.GoodputGbps, pct(r.GoodputGbps, base),
			100*r.UnintendedDropRate, r.Healthy, r.AvgLatencyUs,
			avgUtil(r.Links, "->spine"), avgUtil(r.Links, "->nf"),
			strings.Join(perSwitch, "/"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fr := suite.Failure
	linkDrops, switchDrops := sumDrops(fr)
	var orphans int
	for _, s := range fr.Switches {
		orphans += s.Occupancy
	}
	fmt.Fprintf(w, "\nlink failure + reroute (6x3, edge parking, 4.5 Gbps/source; fail flow 0's forward spine link, reroute 2.0 ms later):\n")
	fmt.Fprintf(w, "  flow 0 NF deliveries: pre-fail=%d outage=%d post-reroute=%d\n",
		fr.PhaseDelivered[0], fr.PhaseDelivered[1], fr.PhaseDelivered[2])
	fmt.Fprintf(w, "  drops: links=%d switches=%d (blackholed during detection); premature evictions=%d\n",
		linkDrops, switchDrops, totalPremature(fr))
	fmt.Fprintf(w, "  orphaned parked payloads at run end: %d (reclaimed by expiry eviction as the index wraps)\n", orphans)
	return nil
}

func totalPremature(r sim.FabricResult) uint64 {
	var n uint64
	for _, s := range r.Switches {
		n += s.Premature
	}
	return n
}
