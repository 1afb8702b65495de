package live_test

import (
	"context"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// TestLiveControllerTicks: with Control, the live fabric's controller
// ticks on the wall clock and its report reaches scenario.Report.Control
// in the shape the simulated runs give it, the configured period included.
func TestLiveControllerTicks(t *testing.T) {
	const period = int64(time.Millisecond)
	rep, err := scenario.Run(context.Background(), scenario.Scenario{
		Topology: scenario.Live{Frames: 1500, Window: 64},
		Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: 16, MaxExpiry: 2},
		Control:  scenario.Control{Adaptive: true, PeriodNs: period},
		Opts:     scenario.RunOptions{Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
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
