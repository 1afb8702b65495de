package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func fwNATChain() *nf.Chain {
	return nf.NewChain(
		nf.NewFirewall([]nf.FirewallRule{{Prefix: packet.IPv4Addr{172, 16, 0, 0}, Bits: 12}}),
		nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}),
	)
}

// TestRunTestbedParity pins the redesign's core promise: a Scenario run
// through the unified entrypoint produces the byte-identical sim.Result
// a direct pre-redesign RunTestbed call produces for the same
// parameters.
func TestRunTestbedParity(t *testing.T) {
	sc := Scenario{
		Name:     "parity",
		Topology: Testbed{},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 16384},
		Traffic:  Traffic{SendBps: 4e9, Dist: trafficgen.Datacenter{}},
		Chain:    fwNATChain,
		Opts:     RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 10e6},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	direct := sim.RunTestbed(sim.TestbedConfig{
		Name: "parity", LinkBps: 10e9, SendBps: 4e9,
		Dist: trafficgen.Datacenter{}, Seed: 1,
		BuildChain:  fwNATChain,
		PayloadPark: true,
		PP:          core.Config{Slots: 16384, MaxExpiry: 1},
		WarmupNs:    2e6, MeasureNs: 10e6,
	})
	if rep.Testbed == nil {
		t.Fatal("no testbed detail")
	}
	if !reflect.DeepEqual(*rep.Testbed, direct) {
		t.Errorf("scenario run diverged from direct RunTestbed:\n got %+v\nwant %+v", *rep.Testbed, direct)
	}
	if rep.GoodputGbps != direct.GoodputGbps || rep.Healthy != direct.Healthy {
		t.Errorf("headline metrics diverged: %+v", rep)
	}
	if rep.Topology != "testbed" || rep.Mode != "edge" || rep.Scenario != "parity" {
		t.Errorf("identity fields: %+v", rep)
	}
	if len(rep.LatencyCDF) == 0 {
		t.Error("no latency CDF in headline metrics")
	}
}

// TestRunMultiServerParity does the same for the multi-server topology.
func TestRunMultiServerParity(t *testing.T) {
	sc := Scenario{
		Name:     "ms-parity",
		Topology: MultiServer{Servers: 2},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 2048},
		Traffic:  Traffic{SendBps: 2e9, Dist: trafficgen.Fixed(384)},
		Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	direct := sim.RunMultiServer(sim.MultiServerConfig{
		Servers: 2, LinkBps: 10e9, SendBps: 2e9,
		Dist: trafficgen.Fixed(384), SlotsPerServer: 2048, MaxExpiry: 1,
		PayloadPark: true, Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6,
	})
	if rep.MultiServer == nil {
		t.Fatal("no multiserver detail")
	}
	if !reflect.DeepEqual(*rep.MultiServer, direct) {
		t.Errorf("scenario run diverged from direct RunMultiServer")
	}
	if rep.Delivered == 0 || rep.GoodputGbps <= 0 {
		t.Errorf("headline metrics empty: %+v", rep)
	}
}

// TestRunLeafSpineParity does the same for the fabric topology.
func TestRunLeafSpineParity(t *testing.T) {
	sc := Scenario{
		Name:     "ls-parity",
		Topology: LeafSpine{Leaves: 4, Spines: 2},
		Parking:  Parking{Mode: sim.ParkEdge},
		Traffic:  Traffic{SendBps: 3e9},
		Opts:     RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 5e6},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	direct := sim.RunLeafSpine(sim.FabricConfig{
		Leaves: 4, Spines: 2, Mode: sim.ParkEdge, SendBps: 3e9,
		Slots: 8192, MaxExpiry: 1,
		Seed: 1, WarmupNs: 2e6, MeasureNs: 5e6,
	})
	if rep.Fabric == nil {
		t.Fatal("no fabric detail")
	}
	if !reflect.DeepEqual(*rep.Fabric, direct) {
		t.Errorf("scenario run diverged from direct RunLeafSpine")
	}
	if rep.Mode != "edge" || rep.Topology != "leafspine" {
		t.Errorf("identity fields: %+v", rep)
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"nil topology", Scenario{}, "nil Topology"},
		{"bad servers", Scenario{Topology: MultiServer{Servers: 9}}, "multiserver: servers = 9 outside [1,8]"},
		{"ms chain", Scenario{Topology: MultiServer{}, Chain: fwNATChain}, "MAC-swap"},
		{"ms everyhop", Scenario{Topology: MultiServer{}, Parking: Parking{Mode: sim.ParkEveryHop}}, "multi-switch"},
		{"bad geometry", Scenario{Topology: LeafSpine{Leaves: 40}}, "leafspine: 40x2 outside supported geometry"},
		{"merge-port geometry", Scenario{Topology: LeafSpine{Leaves: 4, Spines: 3}, Parking: Parking{Mode: sim.ParkEdge}}, "merge port"},
		{"fail needs 3 spines", Scenario{Topology: LeafSpine{Leaves: 4, Spines: 2, FailLink: true}, Parking: Parking{Mode: sim.ParkEdge}}, "third spine"},
		{"ecmp x everyhop", Scenario{Topology: LeafSpine{}, Parking: Parking{Mode: sim.ParkEveryHop}, Control: Control{ECMP: true}}, "cannot stripe"},
		{"compress x everyhop", Scenario{Topology: LeafSpine{}, Parking: Parking{Mode: sim.ParkEveryHop}, Program: Program{Kind: "compress"}}, "every-hop"},
		{"custom nil hook", Scenario{Topology: Custom{Name: "x"}}, "nil Run hook"},
		{"custom nil report", Scenario{Topology: Custom{Name: "x", Run: func(context.Context, Scenario) (*Report, error) {
			return nil, nil
		}}}, "nil Report"},
	}
	for _, c := range cases {
		_, err := Run(ctx, c.sc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

// TestCustomTopology runs the escape hatch end to end.
func TestCustomTopology(t *testing.T) {
	called := false
	sc := Scenario{
		Name: "bespoke",
		Topology: Custom{Name: "socketfabric", Run: func(ctx context.Context, s Scenario) (*Report, error) {
			called = true
			if s.Opts.Seed != 7 {
				t.Errorf("scenario not forwarded: %+v", s.Opts)
			}
			return &Report{GoodputGbps: 1.5, Healthy: true}, nil
		}},
		Opts: RunOptions{Seed: 7},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !called || rep.Topology != "socketfabric" || rep.Scenario != "bespoke" {
		t.Errorf("custom run: %+v", rep)
	}
}

// TestQuickWindows checks the RunOptions window resolution.
func TestQuickWindows(t *testing.T) {
	w, m := RunOptions{}.windows()
	if w != 10e6 || m != 40e6 {
		t.Errorf("default windows %d/%d", w, m)
	}
	w, m = RunOptions{Quick: true}.windows()
	if w != 2e6 || m != 8e6 {
		t.Errorf("quick windows %d/%d", w, m)
	}
	w, m = RunOptions{Quick: true, WarmupNs: 5, MeasureNs: 6}.windows()
	if w != 5 || m != 6 {
		t.Errorf("explicit windows %d/%d", w, m)
	}
}

// TestProgressCallback fires on completion.
func TestProgressCallback(t *testing.T) {
	var got []string
	sc := Scenario{
		Name:     "prog",
		Topology: Testbed{},
		Traffic:  Traffic{SendBps: 1e9},
		Opts: RunOptions{
			Seed: 1, WarmupNs: 1e5, MeasureNs: 1e6,
			Progress: func(l string) { got = append(got, l) },
		},
	}
	if _, err := Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "prog" {
		t.Errorf("progress calls: %v", got)
	}
}

// TestRunPartitionsDeterminism pins RunOptions.Partitions' contract at
// the scenario layer: a partitioned leaf-spine run reports byte-identical
// to the serial reference, single-switch topologies ignore the knob
// entirely, and a negative count is rejected up front.
func TestRunPartitionsDeterminism(t *testing.T) {
	run := func(sc Scenario) *Report {
		t.Helper()
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"leafspine", Scenario{
			Name:     "part-ls",
			Topology: LeafSpine{Leaves: 4, Spines: 2},
			Parking:  Parking{Mode: sim.ParkEdge},
			Traffic:  Traffic{SendBps: 6e9},
			Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
		}},
		{"testbed", Scenario{
			Name:     "part-tb",
			Topology: Testbed{},
			Traffic:  Traffic{SendBps: 2e9},
			Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
		}},
		{"multiserver", Scenario{
			Name:     "part-ms",
			Topology: MultiServer{Servers: 2},
			Traffic:  Traffic{SendBps: 2e9},
			Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(tc.sc)
			for _, p := range []int{1, 3} {
				sc := tc.sc
				sc.Opts.Partitions = p
				if got := run(sc); !reflect.DeepEqual(want, got) {
					t.Errorf("partitions=%d diverged from the serial report:\nserial: %+v\npartitioned: %+v", p, want, got)
				}
			}
		})
	}
	sc := Scenario{Topology: Testbed{}, Traffic: Traffic{SendBps: 1e9}, Opts: RunOptions{Partitions: -1}}
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "Partitions") {
		t.Errorf("negative partitions: err = %v, want a Partitions validation error", err)
	}
}
