package sim

import (
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// TestLossyLinkEvictorReclaims is the §7 "link failures / lossy links"
// scenario: packets lost between switch and NF server never return for
// their Merge, so their payloads orphan in the lookup table. The payload
// evictor must reclaim that space and keep the system operating.
func TestLossyLinkEvictorReclaims(t *testing.T) {
	cfg := smokeConfig(true, 6)
	cfg.Name = "lossy"
	cfg.NFLinkLossRate = 0.05 // 5% loss each way
	cfg.Parking.Slots = 2048  // small table so orphans matter quickly
	cfg.Opts.WarmupNs = 5e6
	cfg.Opts.MeasureNs = 30e6
	res := cfg.run(t)

	if res.Splits == 0 {
		t.Fatal("no splits under loss")
	}
	// Orphans accumulate: merges < splits by roughly the loss rate.
	if res.Merges >= res.Splits {
		t.Errorf("merges %d >= splits %d under 5%% loss", res.Merges, res.Splits)
	}
	// The evictor reclaims orphaned slots: with EXP=1 and a small table
	// under steady traffic, evictions must be happening.
	if res.Evictions == 0 {
		t.Error("payload evictor idle despite orphaned payloads")
	}
	// The system keeps delivering the surviving traffic.
	if res.Delivered == 0 || res.GoodputGbps <= 0 {
		t.Errorf("no traffic delivered under loss: %+v", res)
	}
	// Loss is unintended: the run must be (correctly) unhealthy.
	if res.Healthy {
		t.Error("5% loss should violate the 0.1% health criterion")
	}
}

// TestLossyLinkBaselineComparable: the baseline suffers the same loss —
// PayloadPark does not amplify it (the paper argues both deployments are
// equally susceptible).
func TestLossyLinkBaselineComparable(t *testing.T) {
	mk := func(pp bool) testbedRun {
		cfg := smokeConfig(pp, 6)
		cfg.NFLinkLossRate = 0.02
		cfg.Opts.WarmupNs = 4e6
		cfg.Opts.MeasureNs = 16e6
		return cfg
	}
	base := mk(false).run(t)
	pp := mk(true).run(t)
	if base.UnintendedDropRate == 0 || pp.UnintendedDropRate == 0 {
		t.Fatal("loss not observed")
	}
	ratio := pp.UnintendedDropRate / base.UnintendedDropRate
	if ratio > 1.5 || ratio < 0.6 {
		t.Errorf("loss amplification: pp=%.4f base=%.4f",
			pp.UnintendedDropRate, base.UnintendedDropRate)
	}
}

// switchPlant adapts one raw switch program to ctrl.Plant, the way a
// switch CPU exposes a single device to the controller.
type switchPlant struct {
	name string
	prog *core.Program
}

func (p *switchPlant) ReadTelemetry(t *ctrl.Telemetry) {
	t.Switches = append(t.Switches[:0], ctrl.SwitchTelem{
		Name:      p.name,
		Premature: p.prog.C.PrematureEvictions.Value(),
		Occupancy: p.prog.Occupancy(),
		Slots:     p.prog.Config().Slots,
		Expiry:    p.prog.MaxExpiry(),
	})
	t.Links = t.Links[:0]
}
func (p *switchPlant) PushExpiry(_ string, expiry uint32) { p.prog.SetMaxExpiry(expiry) }
func (p *switchPlant) PushTransitSplit(string, bool)      {}
func (p *switchPlant) PushGroup(string, []string)         {}

// TestAdaptiveEvictorInSim drives the §7 adaptive-eviction policy
// (internal/ctrl, which replaced the single-switch core.AdaptiveEvictor)
// against a real program: under an induced NF stall, the controller
// backs off to the conservative policy and recovers after calm ticks.
func TestAdaptiveEvictorInSim(t *testing.T) {
	// Build a deployment directly (behavioural, no DES) where the table
	// is tiny and the "NF" holds packets, causing premature evictions.
	sw := core.NewSwitch("adaptive")
	sw.AddL2Route(MACNF, 1)
	sw.AddL2Route(MACSink, 2)
	prog, err := sw.AttachPayloadPark(core.Config{Slots: 4, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctl := ctrl.New(ctrl.Config{Adaptive: true, Conservative: 8}, &switchPlant{name: "adaptive", prog: prog}, nil)
	ctl.Tick(0) // seeds the baseline and the aggressive Expiry, the configured 1

	gen := trafficgen.New(trafficgen.Config{
		Sizes: trafficgen.Fixed(512), Flows: 16,
		SrcMAC: MACGen, DstMAC: MACNF,
		DstIP: [4]byte{10, 1, 0, 9}, DstPort: 80, Seed: 1,
	})

	// Stalled NF: emissions pile up un-merged, so the wrapping index
	// evicts live payloads; returning them late produces premature
	// evictions that the controller must react to.
	var held []*core.Emission
	for i := 0; i < 16; i++ {
		if em := inject(sw, gen.Next(), 0); em != nil && em.Pkt.PP != nil && em.Pkt.PP.Enabled {
			held = append(held, em)
		}
	}
	for _, em := range held {
		em.Pkt.Eth.Src, em.Pkt.Eth.Dst = MACNF, MACSink
		inject(sw, em.Pkt, 1) // most are premature by now
	}
	ctl.Tick(1000)
	if prog.MaxExpiry() != 8 {
		t.Fatalf("controller stayed aggressive (expiry %d) after %d premature evictions",
			prog.MaxExpiry(), prog.C.PrematureEvictions.Value())
	}
	// Quiet period: the controller recovers after three calm ticks.
	ctl.Tick(2000)
	ctl.Tick(3000)
	ctl.Tick(4000)
	if prog.MaxExpiry() != 1 {
		t.Error("controller failed to recover after calm intervals")
	}
	rep := ctl.Snapshot()
	if rep.ExpiryChanges != 2 || len(rep.Decisions) != 2 ||
		rep.Decisions[0].Kind != "backoff" || rep.Decisions[1].Kind != "resume" {
		t.Fatalf("decision timeline wrong: %+v", rep.Decisions)
	}
}

// inject runs one packet through sw as a batch of one, returning its
// emission (nil when dropped).
func inject(sw *core.Switch, pkt *packet.Packet, in rmt.PortID) *core.Emission {
	res := make([]core.BatchResult, 1)
	sw.InjectBatch([]core.BatchPacket{{Pkt: pkt, In: in}}, res)
	if !res[0].OK {
		return nil
	}
	return &res[0].Em
}
