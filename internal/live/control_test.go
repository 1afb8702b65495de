package live_test

import (
	"context"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// runUntil runs a live scenario, doubling its frame count up to five
// times until enough holds of the report, and returns the last report.
// The controller ticks on the wall clock, so what a run of N frames sees
// depends on how fast the host sends them; growing the run keeps a faster
// host, or a faster fabric, from ending it before the first tick.
func runUntil(t *testing.T, sc scenario.Scenario, enough func(*scenario.Report) bool) *scenario.Report {
	t.Helper()
	for try := 0; ; try++ {
		rep, err := scenario.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if enough(rep) || try == 5 {
			return rep
		}
		l := sc.Topology.(scenario.Live)
		t.Logf("%d frames were not enough; doubling", l.Frames)
		l.Frames *= 2
		sc.Topology = l
	}
}

// TestLiveControllerTicks: with Control, the live fabric's controller
// ticks on the wall clock and its report reaches scenario.Report.Control
// in the shape the simulated runs give it, the configured period included.
func TestLiveControllerTicks(t *testing.T) {
	const period = int64(time.Millisecond)
	rep := runUntil(t, scenario.Scenario{
		Topology: scenario.Live{Frames: 1500, Window: 64},
		Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 16, MaxExpiry: 2},
		Control:  scenario.Control{Adaptive: true, PeriodNs: period},
		Opts:     scenario.RunOptions{Seed: 9},
	}, func(rep *scenario.Report) bool { return rep.Control != nil && rep.Control.Ticks > 0 })
	if rep.Control == nil || rep.Control.Ticks == 0 {
		t.Fatalf("controller never ticked: %+v", rep.Control)
	}
	if rep.Control.PeriodNs != period {
		t.Errorf("report period %d ns, want the configured %d", rep.Control.PeriodNs, period)
	}
	if rep.Live == nil || rep.Live.Control != rep.Control {
		t.Errorf("the live detail does not carry the headline's control report: %+v", rep.Live)
	}
}

// TestLiveControllerPeriodFloor: a live controller ticks at most once a
// millisecond, and its report and decision stamps say the same: with the
// default 250 µs period the report reads 1 ms and every decision is
// stamped on a multiple of it. A decision needs premature evictions after
// the first tick, so the run grows until one is made.
func TestLiveControllerPeriodFloor(t *testing.T) {
	rep := runUntil(t, scenario.Scenario{
		Topology: scenario.Live{Frames: 4000, Window: 64},
		Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 16, MaxExpiry: 2},
		Control:  scenario.Control{Adaptive: true},
		Opts:     scenario.RunOptions{Seed: 9},
	}, func(rep *scenario.Report) bool { return rep.Control != nil && len(rep.Control.Decisions) > 0 })
	const period = int64(time.Millisecond)
	if rep.Control == nil || rep.Control.PeriodNs != period {
		t.Fatalf("report period %+v, want %d ns", rep.Control, period)
	}
	if len(rep.Control.Decisions) == 0 {
		t.Fatalf("no decisions to check (premature=%d)", rep.Premature)
	}
	for _, d := range rep.Control.Decisions {
		if d.AtNs%period != 0 {
			t.Errorf("decision %+v stamped off the %d ns tick", d, period)
		}
	}
}

// TestAdaptiveKeepsConfiguredExpiry: an adaptive controller with nothing
// to back off from leaves every parking program at the configured
// MaxExpiry, live and simulated alike. NF drops orphan payloads, so once
// the slot index wraps a claim meets an occupied slot: at Expiry 3 it is
// skipped twice before the eviction (at Expiry 1 it would be evicted at
// once, never skipped). The live run, windowed at the default 512 within
// its 1,024 slots, must match the reference replay — the same programs
// with no controller — counter for counter, and
// the simulated testbed must match its own run without a controller.
func TestAdaptiveKeepsConfiguredExpiry(t *testing.T) {
	parking := sim.Parking{Mode: sim.ParkEdge, Slots: 1024, MaxExpiry: 3}
	adaptive := ctrl.Config{Adaptive: true}
	quiet := func(t *testing.T, rep *ctrl.Report, premature, skips uint64) {
		t.Helper()
		if rep == nil || rep.Ticks == 0 || len(rep.Decisions) != 0 {
			t.Fatalf("want a controller that ticked and decided nothing: %+v", rep)
		}
		if premature != 0 || skips == 0 {
			t.Fatalf("premature=%d occupied_skips=%d: want none, and some", premature, skips)
		}
	}

	t.Run("live", func(t *testing.T) {
		topo := live.Topology{Frames: 2500, DropFraction: 0.25}
		sec := sim.Sections{Parking: parking, Control: adaptive, Opts: sim.RunOptions{Seed: 5}}
		got, err := live.Run(context.Background(), topo, sec, live.Wiring{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := live.ReferenceRun(topo, sec)
		if err != nil {
			t.Fatal(err)
		}
		quiet(t, got.Control, got.Counters.PrematureEvictions.Value(), got.Counters.OccupiedSkips.Value())
		if err := live.Parity(got, ref); err != nil {
			t.Fatalf("the controller moved the live programs off Expiry 3: %v", err)
		}
	})

	t.Run("sim", func(t *testing.T) {
		run := func(c ctrl.Config) sim.Result {
			tb, s := sim.Testbed{NFLinkLossRate: 0.02}, sim.Sections{
				Parking: parking, Control: c,
				Traffic: sim.Traffic{SendBps: 2e9},
				Opts:    sim.RunOptions{Seed: 5, WarmupNs: 2e6, MeasureNs: 8e6},
			}
			tb.Resolve(&s)
			if err := tb.Validate(s); err != nil {
				t.Fatal(err)
			}
			o, err := sim.Run(tb.Graph(s), s, sim.Wiring{})
			if err != nil {
				t.Fatal(err)
			}
			return tb.View(s, o)
		}
		got, ref := run(adaptive), run(ctrl.Config{})
		quiet(t, got.Control, got.Premature, got.OccupiedSkips)
		if got.Splits != ref.Splits || got.Evictions != ref.Evictions || got.OccupiedSkips != ref.OccupiedSkips {
			t.Fatalf("the controller moved the simulated program off Expiry 3: %+v vs %+v", got, ref)
		}
	})
}
