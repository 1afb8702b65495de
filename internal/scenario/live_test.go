package scenario

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// oddDist is a size distribution that is neither Fixed nor the datacenter
// mix: half the frames below the parking threshold, half above.
type oddDist struct{}

func (oddDist) Sample(rng *rand.Rand) int { return []int{96, 700}[rng.Intn(2)] }
func (oddDist) Name() string              { return "odd" }

// TestLiveScenarioAnyDist: the live runner pre-generates its frames from
// Traffic.Dist as written, so any distribution replays on sockets with
// exact counter parity against the in-process reference.
func TestLiveScenarioAnyDist(t *testing.T) {
	s := Scenario{
		Topology: Live{Frames: 32, Window: 8, DropFraction: 0.2},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 8, MaxExpiry: 2},
		Traffic:  Traffic{Dist: oddDist{}},
		Opts:     RunOptions{Seed: 9},
	}
	rep, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := live.ReferenceRun(live.Topology(s.Topology.(Live)), s.sections())
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Parity(rep.Live, ref); err != nil {
		t.Fatalf("odd-distribution replay diverged: %v", err)
	}
	if c := rep.Live.Counters; c.Splits == 0 || c.SmallPayloadSkips == 0 {
		t.Fatalf("distribution did not straddle the parking threshold: %+v", c)
	}
}

func TestLiveScenarioRoundTripAndRun(t *testing.T) {
	s := Scenario{
		Name:     "live-smoke",
		Topology: Live{Geometry: "chain", Frames: 16, Window: 8, DropFraction: 0.25},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 8, ExplicitDrop: true},
		Traffic:  Traffic{FixedSize: 512, Flows: 32},
		Opts:     RunOptions{Seed: 4},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	lt, ok := back.Topology.(Live)
	if !ok || lt != s.Topology.(Live) {
		t.Fatalf("topology did not round-trip: %+v", back.Topology)
	}
	rep, err := Run(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Topology != "live" || rep.Live == nil {
		t.Fatalf("report missing live section: %+v", rep)
	}
	if rep.Live.Sent != 16 {
		t.Fatalf("unexpected live result: %+v", rep.Live)
	}
	if rep.Live.Counters.Splits == 0 {
		t.Fatalf("parking scenario split nothing: %+v", rep.Live.Counters)
	}
	if !rep.Healthy {
		t.Fatalf("live run unhealthy: %+v", rep)
	}
}

func TestLiveScenarioValidation(t *testing.T) {
	base := Scenario{Topology: Live{}, Parking: Parking{Mode: sim.ParkEdge}}
	cases := []struct {
		mutate func(*Scenario)
		want   string
	}{
		{func(s *Scenario) { s.Topology = Live{Geometry: "ring"} }, "unknown geometry"},
		{func(s *Scenario) { s.Topology = Live{Geometry: "3x2"} }, "merge port"},
		{func(s *Scenario) { s.Topology = Live{Geometry: "4x2"}; s.Parking.ExplicitDrop = true }, "explicit drop"},
		{func(s *Scenario) { s.Parking.Mode = sim.ParkEveryHop }, "ParkEveryHop"},
		{func(s *Scenario) { s.Parking.Recirculate = true }, "Recirculate"},
		{func(s *Scenario) { s.Program.Kind = "compress" }, "table programs"},
		{func(s *Scenario) { s.Control.ECMP = true }, "ECMP"},
		// live.Topology.Validate owns these (live.TestRulesHaveOneOwner
		// calls live.Run and ReferenceRun directly).
		{func(s *Scenario) { s.Chain = fwNATChain }, "scenario: live: custom Chain unsupported (the socket NF pins firewall+MAC-swap)"},
		{func(s *Scenario) { s.Traffic.Source = func() trafficgen.Source { return nil } }, "scenario: live: Traffic.Source unsupported"},
		{func(s *Scenario) { s.Parking.Mode = sim.ParkEveryHop }, "scenario: live: ParkEveryHop unsupported (the socket fabric parks at the edge)"},
		{func(s *Scenario) { s.Parking.BoundaryOffset = 32 }, "scenario: live: Recirculate/BoundaryOffset unsupported"},
		{func(s *Scenario) { s.Program.Kind = "compress" }, "scenario: live: table programs unsupported (use Testbed or LeafSpine)"},
		{func(s *Scenario) { s.Control.ECMP = true }, "scenario: live: ECMP unsupported (the socket fabric routes statically)"},
		{func(s *Scenario) { s.Control = Control{Adaptive: true, PeriodNs: -1} }, "scenario: live: control.period_ns = -1 outside [0, +Inf)"},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		_, err := Run(context.Background(), s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mutation expecting %q got %v", tc.want, err)
		}
	}
}

// TestLiveGoodputIsHeaderUnits: the live headline's goodput_gbps is the
// header-unit goodput every simulated topology reports — 42 B per frame
// the NF daemons received, over the run's elapsed time — not the sink's
// frame-byte rate.
func TestLiveGoodputIsHeaderUnits(t *testing.T) {
	s := Scenario{
		Topology: Live{Frames: 64, Window: 8, DropFraction: 0.25},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 8},
		Traffic:  Traffic{FixedSize: 512},
		Observe:  Observe{Metrics: true},
		Opts:     RunOptions{Seed: 3},
	}
	rep, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var rx uint64 // what the daemons' own counters say reached them
	for _, c := range rep.Metrics.Counters {
		if strings.HasPrefix(c.Name, "pp_live_nf_rx_total{") {
			rx += c.Value
		}
	}
	if rx == 0 || rx == rep.Delivered {
		t.Fatalf("NF daemons received %d frames, delivered %d: want some, and some dropped at the NF", rx, rep.Delivered)
	}
	want := float64(packet.HeaderUnitLen*8*rx) / float64(rep.Live.ElapsedNs)
	if got := rep.GoodputGbps; math.Abs(got-want) > 1e-12*want {
		t.Errorf("goodput_gbps = %g, want 42 B × 8 × %d frames / %d ns = %g", got, rx, rep.Live.ElapsedNs, want)
	}
	ref, err := live.ReferenceRun(live.Topology(s.Topology.(Live)), s.sections())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live.NFReceived != rx || ref.NFReceived != rx {
		t.Errorf("NFReceived: live %d, reference %d; the daemons received %d", rep.Live.NFReceived, ref.NFReceived, rx)
	}
}

// TestLiveSendGbpsIsFramesSent: the live headline's send_gbps is the bytes
// of every frame the generators sent over the run's elapsed time — 512 B
// per frame of a fixed-size workload — and the reference replay sends the
// same bytes.
func TestLiveSendGbpsIsFramesSent(t *testing.T) {
	s := Scenario{
		Topology: Live{Frames: 64, Window: 8},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 8},
		Traffic:  Traffic{FixedSize: 512},
		Opts:     RunOptions{Seed: 3},
	}
	rep, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Live
	if res.Sent == 0 || res.Sent%64 != 0 || res.SentBytes != 512*res.Sent {
		t.Fatalf("sent %d frames, %d bytes: want 64 per generator, 512 B each", res.Sent, res.SentBytes)
	}
	want := 8 * 512 * float64(res.Sent) / float64(res.ElapsedNs)
	if got := rep.SendGbps; math.Abs(got-want) > 1e-12*want {
		t.Errorf("send_gbps = %g, want 8 × 512 B × %d frames / %d ns = %g", got, res.Sent, res.ElapsedNs, want)
	}
	ref, err := live.ReferenceRun(live.Topology(s.Topology.(Live)), s.sections())
	if err != nil {
		t.Fatal(err)
	}
	if ref.SentBytes != res.SentBytes {
		t.Errorf("reference sent %d bytes, live %d", ref.SentBytes, res.SentBytes)
	}
}
