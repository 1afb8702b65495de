package harness

import (
	"fmt"
	"io"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func init() {
	register(experiment(Experiment{
		ID:    "live",
		Title: "Live socket fabric: sim-vs-live counter parity, loopback wire rate, leaf-spine and adaptive control over real datagrams",
		Paper: "not a paper figure: the paper's Tofino testbed (Fig. 5) recreated as UDP loopback sockets around the same compiled pipeline, so its counters can be held to the simulator's exactly",
	}, CollectLiveSuite, RenderLiveSuite))
}

// LiveSuite is the live experiment family's machine-readable result.
// Identical sits at the top level on purpose: CI greps the BENCH
// artifact for `"identical": true` as the sim-vs-live parity hard gate.
type LiveSuite struct {
	// Identical reports exact counter parity between the lockstep socket
	// runs and their in-process reference replays (every run in Parity).
	Identical bool `json:"identical"`
	// Parity holds the lockstep parity runs (live vs reference pairs).
	Parity []LiveParity `json:"parity"`
	// Rates holds the open-loop throughput runs over loopback.
	Rates []LiveRate `json:"rates"`
}

// LiveParity is one deterministic lockstep replay, run on sockets and
// re-run in process, with the counter comparison verdict.
type LiveParity struct {
	Name      string       `json:"name"`
	Identical bool         `json:"identical"`
	Mismatch  string       `json:"mismatch,omitempty"`
	Live      *live.Result `json:"live"`
	Reference *live.Result `json:"reference"`
}

// LiveRate is one open-loop throughput run.
type LiveRate struct {
	Name   string       `json:"name"`
	Result *live.Result `json:"result"`
}

// CollectLiveSuite runs the live experiment family: the lockstep parity
// replays (each on sockets and again in process, over the one
// description), then the loopback throughput comparisons through the
// Scenario front end, like every other topology.
func CollectLiveSuite(o Options) (*LiveSuite, error) {
	suite := &LiveSuite{Identical: true}
	ctx := o.ctx()

	// The deterministic replays the parity gate holds to exact counter
	// equality: chain baseline, chain parking with NF drops (evictions),
	// chain parking with §6.2.4 explicit drops, a two-pipe chain, and the
	// 4x2 park-at-edge leaf-spine. Parking runs use a tiny table with the
	// conservative expiry, so orphaned payloads are reclaimed mid-replay.
	frames := 192
	if o.Quick {
		frames = 64
	}
	topo := func(geometry string, pipes, frames int, dropFraction float64) live.Topology {
		return live.Topology{Geometry: geometry, Pipes: pipes, Frames: frames, Lockstep: true, DropFraction: dropFraction}
	}
	park := func(explicitDrop bool, seed int64) sim.Sections {
		return sim.Sections{
			Parking: sim.Parking{Mode: sim.ParkEdge, Slots: 8, MaxExpiry: 2, ExplicitDrop: explicitDrop},
			Opts:    sim.RunOptions{Seed: seed},
		}
	}
	for _, pr := range []struct {
		name string
		topo live.Topology
		sec  sim.Sections
	}{
		{"chain-baseline", topo("chain", 1, frames, 0), sim.Sections{Opts: sim.RunOptions{Seed: o.Seed}}},
		{"chain-parking-drops", topo("chain", 1, frames, 0.25), park(false, o.Seed)},
		{"chain-explicit-drop", topo("chain", 1, frames, 0.25), park(true, o.Seed+1)},
		{"chain-two-pipes", topo("chain", 2, frames/2, 0.2), park(false, o.Seed+2)},
		{"leafspine-4x2", topo("4x2", 0, frames/4, 0.2), park(false, o.Seed+3)},
	} {
		lr, err := live.Run(ctx, pr.topo, pr.sec, live.Wiring{})
		if err != nil {
			return nil, fmt.Errorf("harness: live %s: %w", pr.name, err)
		}
		ref, err := live.ReferenceRun(pr.topo, pr.sec)
		if err != nil {
			return nil, fmt.Errorf("harness: reference %s: %w", pr.name, err)
		}
		p := LiveParity{Name: pr.name, Identical: true, Live: lr, Reference: ref}
		if err := live.Parity(lr, ref); err != nil {
			p.Identical = false
			p.Mismatch = err.Error()
			suite.Identical = false
		}
		suite.Parity = append(suite.Parity, p)
	}

	frames = 20000
	if o.Quick {
		frames = 4000
	}
	rates := []struct {
		name string
		scn  scenario.Scenario
	}{
		{"chain-baseline", scenario.Scenario{
			Name:     "live-chain-baseline",
			Topology: scenario.Live{Frames: frames},
			Opts:     scenario.RunOptions{Seed: o.Seed},
		}},
		{"chain-parking", scenario.Scenario{
			Name:     "live-chain-parking",
			Topology: scenario.Live{Frames: frames},
			Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 1024},
			Opts:     scenario.RunOptions{Seed: o.Seed},
		}},
		{"chain-two-pipes", scenario.Scenario{
			Name:     "live-chain-two-pipes",
			Topology: scenario.Live{Pipes: 2, Frames: frames},
			Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 1024},
			Opts:     scenario.RunOptions{Seed: o.Seed},
		}},
		{"leafspine-4x2", scenario.Scenario{
			Name:     "live-leafspine-4x2",
			Topology: scenario.Live{Geometry: "4x2", Frames: frames / 4},
			Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 1024},
			Opts:     scenario.RunOptions{Seed: o.Seed},
		}},
		{"chain-adaptive", scenario.Scenario{
			Name:     "live-chain-adaptive",
			Topology: scenario.Live{Frames: frames, DropFraction: 0.1},
			Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 64},
			Control:  scenario.Control{Adaptive: true, PeriodNs: 1e6, Conservative: 8},
			Opts:     scenario.RunOptions{Seed: o.Seed},
		}},
	}
	for _, rc := range rates {
		rep, err := scenario.Run(ctx, rc.scn)
		if err != nil {
			return nil, fmt.Errorf("harness: live rate %s: %w", rc.name, err)
		}
		suite.Rates = append(suite.Rates, LiveRate{Name: rc.name, Result: rep.Live})
	}
	return suite, nil
}

// RenderLiveSuite writes the text form of a collected LiveSuite.
func RenderLiveSuite(s *LiveSuite, w io.Writer) error {
	fmt.Fprintf(w, "   sim-vs-live parity (lockstep replay, exact counter equality): identical=%t\n", s.Identical)
	tw := newTable(w)
	fmt.Fprintln(tw, "   run\tframes\tdelivered\tsplits\tmerges\tevict\tpremature\texplicit\tverdict")
	for _, p := range s.Parity {
		verdict := "identical"
		if !p.Identical {
			verdict = "MISMATCH: " + p.Mismatch
		}
		c := p.Live.Counters
		fmt.Fprintf(tw, "   %s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			p.Name, p.Live.Sent, p.Live.Delivered, c.Splits, c.Merges,
			c.Evictions, c.PrematureEvictions, c.ExplicitDrops, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "   loopback wire rate (open-loop, batched per-pipe workers):\n")
	tw = newTable(w)
	fmt.Fprintln(tw, "   run\tsent\tdelivered\tkpps\tGbps\tsplits\tevict\tctl ticks")
	for _, r := range s.Rates {
		res := r.Result
		if res == nil {
			fmt.Fprintf(tw, "   %s\t(no live result)\n", r.Name)
			continue
		}
		fmt.Fprintf(tw, "   %s\t%d\t%d\t%.0f\t%.3f\t%d\t%d\t%d\n",
			r.Name, res.Sent, res.Delivered, res.PPS/1e3, res.Gbps,
			res.Counters.Splits, res.Counters.Evictions, res.ControlTicks)
	}
	return tw.Flush()
}
