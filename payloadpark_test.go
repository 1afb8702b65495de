package payloadpark

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"testing"
	"testing/quick"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
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

// TestProcessFrameAgreesWithProcess holds the byte path of a Deployment
// (switch frames, the NF framework's HandleFrame) to its packet path
// (InjectBatch, Handle) at every size 42..1500: identical delivered bytes,
// program counters, occupancy and switch drops, for a MAC swap, a chain
// whose firewall drops about half the flows (10.0.0.0/9), and a NAT that
// does not swap MACs, with the decoupling boundary at 0 and 32 and
// explicit drops off and on. The MAC swap's bytes are the input's with the
// addresses swapped (§6.2.6), and nothing returns to the NF's own MAC.
//
// A payload shorter than the boundary has no room for the disabled header
// at the boundary (it rides behind the whole payload), so the merge port's
// parse refuses the returning frame as truncated, while Process, which
// carries the header as a struct, delivers the packet. Those sizes run on
// a deployment pair of their own and must show exactly that refusal.
func TestProcessFrameAgreesWithProcess(t *testing.T) {
	chains := []struct {
		name  string
		chain func() *Chain
	}{
		{"MACSwap", func() *Chain { return nil }}, // the deployment's default
		{"FW->NAT->MACSwap", func() *Chain {
			fw := NewFirewall([]FirewallRule{{Prefix: IPv4Addr{10, 0, 0, 0}, Bits: 9}})
			return NewChain(fw, NewNAT(IPv4Addr{198, 51, 100, 1}), nf.MACSwap{})
		}},
		{"NAT", func() *Chain { return NewChain(NewNAT(IPv4Addr{198, 51, 100, 1})) }},
	}
	for _, boundary := range []int{0, 32} {
		for _, explicit := range []bool{false, true} {
			for _, c := range chains {
				t.Run(fmt.Sprintf("%s/boundary=%d/explicit=%t", c.name, boundary, explicit), func(t *testing.T) {
					pair := func() (pkts, frames *Deployment) {
						deps := [2]*Deployment{}
						for i := range deps {
							d, err := New(DeploymentConfig{Slots: 64, MaxExpiry: 10, BoundaryOffset: boundary,
								Chain: c.chain(), ExplicitDrop: explicit})
							if err != nil {
								t.Fatal(err)
							}
							deps[i] = d
						}
						return deps[0], deps[1]
					}
					pkts, frames := pair()
					shortPkts, shortFrames := pair()
					refused := 0
					for size := packet.HeaderUnitLen; size <= 1500; size++ {
						flow := FiveTuple{
							SrcIP: IPv4Addr{10, byte(size * 37), 0, 1}, DstIP: IPv4Addr{10, 1, 0, 9},
							SrcPort: uint16(size), DstPort: 80, Protocol: 17,
						}
						in := NewUDPPacket(flow, size, uint16(size))
						frame := in.Serialize()
						if size-packet.HeaderUnitLen < boundary {
							want := shortPkts.Process(in)
							got, err := shortFrames.ProcessFrame(frame)
							if want == nil && (got != nil || err != nil) || want != nil && !errors.Is(err, packet.ErrTruncated) {
								t.Fatalf("size %d: ProcessFrame = %x, %v; Process delivered %t; want the same drop or a truncated-frame refusal", size, got, err, want != nil)
							}
							if want != nil {
								refused++
							}
							continue
						}
						want := pkts.Process(in)
						got, err := frames.ProcessFrame(frame)
						if err != nil {
							t.Fatalf("size %d: ProcessFrame: %v", size, err)
						}
						if want == nil {
							if got != nil {
								t.Fatalf("size %d: Process dropped the packet, ProcessFrame delivered %x", size, got)
							}
							continue
						}
						if !bytes.Equal(got, want.Serialize()) {
							t.Fatalf("size %d: ProcessFrame delivered\n%x\nProcess\n%x", size, got, want.Serialize())
						}
						if want.Eth.Dst == sim.MACNF {
							t.Fatalf("size %d: delivered packet addressed to the NF's own MAC", size)
						}
						if c.name == "MACSwap" {
							swapped := append(append(frame[6:12:12], frame[:6]...), frame[12:]...)
							if !bytes.Equal(got, swapped) {
								t.Fatalf("size %d: the MAC swap delivered\n%x\nwant the input with its addresses swapped\n%x", size, got, swapped)
							}
						}
					}
					if *pkts.Counters() != *frames.Counters() {
						t.Errorf("counters diverge:\n  Process:      %v\n  ProcessFrame: %v", pkts.Counters(), frames.Counters())
					}
					if pkts.Occupancy() != frames.Occupancy() {
						t.Errorf("occupancy %d by Process, %d by ProcessFrame", pkts.Occupancy(), frames.Occupancy())
					}
					if got, want := frames.SwitchDrops(), pkts.SwitchDrops(); !maps.Equal(got, want) {
						t.Errorf("switch drops: ProcessFrame %v, Process %v", got, want)
					}
					// A refused frame never reaches the strip of its disabled
					// header, and is the one drop Process does not see.
					short := *shortFrames.Counters()
					short.SplitDisabledFromNF.Add(uint64(refused))
					if short != *shortPkts.Counters() || shortPkts.Occupancy()+shortFrames.Occupancy() != 0 {
						t.Errorf("short payloads: counters %v (occupancy %d) by ProcessFrame, %v (%d) by Process; want %d refusals apart",
							shortFrames.Counters(), shortFrames.Occupancy(), shortPkts.Counters(), shortPkts.Occupancy(), refused)
					}
					want := shortPkts.SwitchDrops()
					if refused > 0 {
						want["parse error"] += uint64(refused)
					}
					if got := shortFrames.SwitchDrops(); !maps.Equal(got, want) {
						t.Errorf("short payloads: switch drops %v by ProcessFrame, want %v (Process's plus %d refusals)", got, want, refused)
					}

					// The grid reaches what it claims to.
					pc := pkts.Counters()
					if pc.Splits.Value() == 0 || pc.Merges.Value() == 0 || pc.SmallPayloadSkips.Value() == 0 {
						t.Errorf("counters %v: want parked, merged and small packets", pc)
					}
					if dropping := c.name == "FW->NAT->MACSwap"; dropping && explicit != (pc.ExplicitDrops.Value() > 0) {
						t.Errorf("explicit drops = %d with explicit drops %t", pc.ExplicitDrops.Value(), explicit)
					}
					if boundary > 0 && refused == 0 {
						t.Error("no payload shorter than the boundary came back from the NF")
					}
				})
			}
		}
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
	// The NAT/LB chain does not swap MACs, so the framework rewrites them
	// toward the sink.
	out := d.Process(in)
	if out == nil {
		t.Fatal("packet dropped")
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
