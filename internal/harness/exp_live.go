package harness

import (
	"fmt"
	"strings"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "live",
		Title:   "Live socket fabric: sim-vs-live counter parity, loopback wire rate, leaf-spine and adaptive control over real datagrams",
		Paper:   "not a paper figure: the paper's Tofino testbed (Fig. 5) recreated as UDP loopback sockets around the same compiled pipeline, so its counters can be held to the simulator's exactly",
		Collect: collectLive,
	})
}

// collectLive runs the live experiment family: the parity replays (each
// on sockets and again in process, over the one description; runs
// "live-parity-NAME" and "live-parity-NAME/reference"), then the loopback
// throughput comparisons through the Scenario front end, like every other
// topology. A parity mismatch is an error: the Result still renders,
// with the mismatch in the verdict column.
func collectLive(o Options) (*Result, error) {
	res := &Result{}

	// The deterministic replays the parity gate holds to exact counter
	// equality: chain baseline, chain parking with NF drops (evictions),
	// chain parking with §6.2.4 explicit drops, a two-pipe chain, and the
	// 4x2 park-at-edge leaf-spine. Parking runs use a tiny table with the
	// conservative expiry, so orphaned payloads are reclaimed mid-replay.
	frames := 192
	if o.Quick {
		frames = 64
	}
	parity := res.table("", "   run\tframes\tdelivered\tsplits\tmerges\tevict\tpremature\texplicit\tverdict")
	var mismatches []string
	var err error
	// replay runs one description on sockets, windowed at its table's
	// slots (a baseline's zero keeps the default), and in process, and
	// prints the comparison; after a failed run the rest are skipped.
	replay := func(name string, topo live.Topology, parking sim.Parking, seed int64) {
		if err != nil {
			return
		}
		topo.Window = parking.Slots
		sec := sim.Sections{Parking: parking, Opts: sim.RunOptions{Seed: seed}}
		lr, lerr := live.Run(o.ctx(), topo, sec, live.Wiring{})
		if lerr != nil {
			err = fmt.Errorf("harness: live %s: %w", name, lerr)
			return
		}
		ref, rerr := live.ReferenceRun(topo, sec)
		if rerr != nil {
			err = fmt.Errorf("harness: reference %s: %w", name, rerr)
			return
		}
		res.record(&scenario.Report{Scenario: "live-parity-" + name, Topology: "live", Live: lr})
		res.record(&scenario.Report{Scenario: "live-parity-" + name + "/reference", Topology: "live", Live: ref})
		verdict := "identical"
		if perr := live.Parity(lr, ref); perr != nil {
			verdict = "MISMATCH: " + perr.Error()
			mismatches = append(mismatches, name)
		}
		c := lr.Counters
		parity.row("   %s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s", name, lr.Sent, lr.Delivered,
			c.Splits, c.Merges, c.Evictions, c.PrematureEvictions, c.ExplicitDrops, verdict)
	}
	park := sim.Parking{Mode: sim.ParkEdge, Slots: 8, MaxExpiry: 2}
	explicit := park
	explicit.ExplicitDrop = true
	replay("chain-baseline", live.Topology{Frames: frames}, sim.Parking{}, o.Seed)
	replay("chain-parking-drops", live.Topology{Frames: frames, DropFraction: 0.25}, park, o.Seed)
	replay("chain-explicit-drop", live.Topology{Frames: frames, DropFraction: 0.25}, explicit, o.Seed+1)
	replay("chain-two-pipes", live.Topology{Pipes: 2, Frames: frames / 2, DropFraction: 0.2}, park, o.Seed+2)
	replay("leafspine-4x2", live.Topology{Geometry: "4x2", Frames: frames / 4, DropFraction: 0.2}, park, o.Seed+3)
	if err != nil {
		return nil, err
	}
	parity.Title = fmt.Sprintf("   sim-vs-live parity (windowed at the table's slots, exact counter equality): identical=%t", len(mismatches) == 0)

	frames = 20000
	if o.Quick {
		frames = 4000
	}
	rates := res.table("   loopback wire rate (open-loop, batched per-pipe workers):",
		"   run\tsent\tdelivered\tkpps\tGbps\tsplits\tevict\tctl ticks")
	for _, scn := range []scenario.Scenario{
		{Name: "live-chain-baseline", Topology: scenario.Live{Frames: frames}},
		{Name: "live-chain-parking", Topology: scenario.Live{Frames: frames},
			Parking: scenario.Parking{Mode: sim.ParkEdge, Slots: 1024}},
		{Name: "live-chain-two-pipes", Topology: scenario.Live{Pipes: 2, Frames: frames},
			Parking: scenario.Parking{Mode: sim.ParkEdge, Slots: 1024}},
		{Name: "live-leafspine-4x2", Topology: scenario.Live{Geometry: "4x2", Frames: frames / 4},
			Parking: scenario.Parking{Mode: sim.ParkEdge, Slots: 1024}},
		{Name: "live-chain-adaptive", Topology: scenario.Live{Frames: frames, DropFraction: 0.1},
			Parking: scenario.Parking{Mode: sim.ParkEdge, Slots: 64},
			Control: scenario.Control{Adaptive: true, PeriodNs: 1e6, Conservative: 8}},
	} {
		scn.Opts.Seed = o.Seed
		rep, err := res.run(o, scn)
		if err != nil {
			return nil, fmt.Errorf("harness: live rate %s: %w", scn.Name, err)
		}
		r := rep.Live
		ticks := 0
		if rep.Control != nil {
			ticks = rep.Control.Ticks
		}
		rates.row("   %s\t%d\t%d\t%.0f\t%.3f\t%d\t%d\t%d", strings.TrimPrefix(scn.Name, "live-"),
			r.Sent, r.Delivered, r.PPS/1e3, r.Gbps, r.Counters.Splits, r.Counters.Evictions, ticks)
	}
	rates.note("   chain-adaptive is the one row whose window (512) exceeds its table (64): slots are re-claimed before")
	rates.note("   their headers return, so its delivered count tracks the wall-clock controller's reaction and varies run to run.")
	if len(mismatches) > 0 {
		return res, fmt.Errorf("harness: live counters diverged from the in-process reference: %s", strings.Join(mismatches, ", "))
	}
	return res, nil
}
