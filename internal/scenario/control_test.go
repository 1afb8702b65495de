package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/sim"
)

func TestRunLeafSpineWithControl(t *testing.T) {
	rep, err := Run(context.Background(), Scenario{
		Name:     "ctrl",
		Topology: LeafSpine{Leaves: 6, Spines: 3},
		Parking:  Parking{Mode: sim.ParkEdge},
		Control:  Control{ECMP: true, Adaptive: true},
		Traffic:  Traffic{SendBps: 3e9},
		Opts:     RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 6e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Control == nil || rep.Control.Ticks == 0 {
		t.Fatalf("no control section: %+v", rep.Control)
	}
	if rep.Fabric == nil || rep.Fabric.Control == nil {
		t.Fatal("fabric detail missing its control report")
	}
	if !rep.Healthy {
		t.Errorf("controlled fabric unhealthy below saturation: %+v", rep)
	}
}

func TestControlValidation(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{
			"testbed-ecmp",
			Scenario{Topology: Testbed{}, Parking: Parking{Mode: sim.ParkEdge}, Control: Control{ECMP: true}},
			"multipath",
		},
		{
			"testbed-adaptive-baseline",
			Scenario{Topology: Testbed{}, Control: Control{Adaptive: true}},
			"needs parking",
		},
		{
			"multiserver-control",
			Scenario{Topology: MultiServer{}, Parking: Parking{Mode: sim.ParkEdge}, Control: Control{Adaptive: true}},
			"control plane unsupported",
		},
		{
			"leafspine-ecmp-everyhop",
			Scenario{Topology: LeafSpine{}, Parking: Parking{Mode: sim.ParkEveryHop}, Control: Control{ECMP: true}},
			"cannot stripe",
		},
		{
			"leafspine-adaptive-baseline",
			Scenario{Topology: LeafSpine{}, Control: Control{Adaptive: true}},
			"needs parking",
		},
	}
	for _, c := range cases {
		_, err := Run(context.Background(), c.s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestECMPSweepDeterministicAcrossWorkers is the reproducibility
// contract for control-plane sweeps: the same grid run with 1 worker and
// with 4 (GOMAXPROCS 1 and 4) produces byte-identical reports — same flow->path assignment,
// same decision timeline — regardless of scheduling (run under -race in
// CI).
func TestECMPSweepDeterministicAcrossWorkers(t *testing.T) {
	sw := Sweep{
		Base: Scenario{
			Name:     "ecmp-det",
			Topology: LeafSpine{Leaves: 6, Spines: 3},
			Control:  Control{ECMP: true, Adaptive: true},
			Traffic:  Traffic{SendBps: 3e9},
			Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
		},
		Axes: []Axis{
			ParkingAxis(sim.ParkNone, sim.ParkEdge),
			seeds(1, 2),
		},
	}
	one, four := atProcs(t, 1, sw), atProcs(t, 4, sw)
	a, err := json.Marshal(one.Points)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(four.Points)
	if string(a) != string(b) {
		t.Error("ECMP sweep results differ across worker counts")
	}
	for _, pt := range one.Points {
		if pt.Err != "" {
			t.Fatalf("point %v failed: %s", pt.Labels, pt.Err)
		}
		if pt.Report.Fabric == nil {
			t.Fatalf("point %v missing fabric detail", pt.Labels)
		}
	}
}
