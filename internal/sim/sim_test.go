package sim

import (
	"math"
	"testing"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(30, func() { order = append(order, 3) })
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.Schedule(20, func() { order = append(order, 2) })
	eng.Schedule(10, func() { order = append(order, 4) }) // FIFO at same time
	eng.Run(100)
	want := []int{1, 4, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if eng.Now() != 100 {
		t.Errorf("now = %d, want 100", eng.Now())
	}
}

func TestEngineRunUntilStopsEarly(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.Schedule(200, func() { fired = true })
	eng.Run(100)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if eng.Pending() != 1 {
		t.Errorf("pending = %d, want 1", eng.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			eng.Schedule(10, tick)
		}
	}
	eng.Schedule(0, tick)
	eng.Run(1000)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	eng := NewEngine()
	ran := false
	eng.Schedule(5, func() {
		eng.Schedule(-100, func() { ran = true })
	})
	eng.Run(10)
	if !ran {
		t.Error("clamped event did not run")
	}
}

func mkParcel(size int) Parcel {
	ft := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 9000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	return Parcel{Pkt: packet.NewBuilder(MACGen, MACNF).UDP(ft, size, 1), InWindow: true}
}

func TestLinkSerializationAndDelivery(t *testing.T) {
	eng := NewEngine()
	var deliveredAt []int64
	l := NewLink(eng, 1e9, 100, 1<<20, func(Parcel) {
		deliveredAt = append(deliveredAt, eng.Now())
	}, nil)
	// Two 1000B (1024 wire bytes incl overhead) packets at 1 Gbps:
	// 8192 ns each, plus 100 ns propagation.
	p := mkParcel(1000)
	l.Send(p)
	l.Send(mkParcel(1000))
	eng.Run(1e6)
	if len(deliveredAt) != 2 {
		t.Fatalf("delivered = %d, want 2", len(deliveredAt))
	}
	if deliveredAt[0] != 8192+100 {
		t.Errorf("first delivery at %d, want 8292", deliveredAt[0])
	}
	if deliveredAt[1] != 2*8192+100 {
		t.Errorf("second delivery at %d, want 16484", deliveredAt[1])
	}
	if l.Tx.Value() != 2 {
		t.Errorf("tx = %d", l.Tx.Value())
	}
	_ = p
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	eng := NewEngine()
	drops := 0
	l := NewLink(eng, 1e9, 0, 2100, func(Parcel) {}, func(Parcel, string) { drops++ })
	// Each 1000 B packet occupies 1024 wire bytes; two fit in 2100B, the
	// third does not.
	l.Send(mkParcel(1000))
	l.Send(mkParcel(1000))
	l.Send(mkParcel(1000))
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	eng.Run(1e6)
	if l.Drops.Value() != 1 || l.Tx.Value() != 2 {
		t.Errorf("link counters tx=%d drops=%d", l.Tx.Value(), l.Drops.Value())
	}
	if l.QueuedBytes() != 0 {
		t.Errorf("queued bytes = %d after drain", l.QueuedBytes())
	}
}

func TestLinkUtilization(t *testing.T) {
	eng := NewEngine()
	l := NewLink(eng, 1e9, 0, 1<<20, func(Parcel) {}, nil)
	l.Send(mkParcel(1000)) // 8192 bits... 1024 bytes * 8
	eng.Run(1e6)
	got := l.Utilization(1e6)
	want := 1024 * 8.0 / 1e6 / 1e3 * 1e9 / 1e9 // bits / (1Gbps * 1ms)
	want = 1024 * 8 / (1e9 * 1e-3)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("utilization = %v, want %v", got, want)
	}
}

func TestServerSimPipelineTiming(t *testing.T) {
	eng := NewEngine()
	model := DefaultServerModel()
	model.RxFixedNs = 100
	model.RxPerByteNs = 0
	model.PCIeBps = 1e12 // effectively instant
	var outAt int64 = -1
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.NewSynthetic("S", 230))}) // 230cy@2.3GHz = 100ns
	s := NewServerSim(eng, model, srv, 1, func(Parcel) { outAt = eng.Now() }, nil, nil)
	s.Receive(mkParcel(500))
	eng.Run(1e6)
	// 100 ns RX + 100 ns stage (+ ~0 PCIe) = 200 ns.
	if outAt < 195 || outAt > 210 {
		t.Errorf("out at %d ns, want ~200", outAt)
	}
	if s.PCIeBytes.Value() == 0 {
		t.Error("PCIe bytes not accounted")
	}
}

func TestServerSimRingOverflow(t *testing.T) {
	eng := NewEngine()
	model := DefaultServerModel()
	model.NICRing = 2
	model.RxFixedNs = 1e6 // very slow server
	drops := 0
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})})
	s := NewServerSim(eng, model, srv, 1, func(Parcel) {}, func(Parcel, string) { drops++ }, nil)
	for i := 0; i < 5; i++ {
		s.Receive(mkParcel(200))
	}
	if drops != 3 {
		t.Fatalf("ring drops = %d, want 3", drops)
	}
	if s.RxDrops.Value() != 3 {
		t.Errorf("counter = %d", s.RxDrops.Value())
	}
}

func TestServerSimConsumesNFDrops(t *testing.T) {
	eng := NewEngine()
	consumed := 0
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.NewFirewall([]nf.FirewallRule{{Bits: 0}}))})
	s := NewServerSim(eng, DefaultServerModel(), srv, 1,
		func(Parcel) { t.Error("dropped packet transmitted") },
		nil,
		func(Parcel) { consumed++ })
	s.Receive(mkParcel(500))
	eng.Run(1e6)
	if consumed != 1 {
		t.Errorf("consumed = %d, want 1", consumed)
	}
}

// chain builders for testbed smoke tests.
func chainFWNAT() *nf.Chain {
	return nf.NewChain(
		nf.NewFirewall([]nf.FirewallRule{{Prefix: packet.IPv4Addr{172, 16, 0, 0}, Bits: 12}}),
		nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}),
	)
}

// parking is the smoke tests' policy: a 16384-slot edge program, or the
// baseline.
func parking(pp bool) Parking {
	if !pp {
		return Parking{}
	}
	return Parking{Mode: ParkEdge, Slots: 16384, MaxExpiry: 1}
}

func smokeConfig(pp bool, sendGbps float64) testbedRun {
	return testbedRun{
		Testbed: Testbed{LinkBps: 10e9},
		Sections: Sections{
			Name:    "smoke",
			Parking: parking(pp),
			Traffic: Traffic{SendBps: sendGbps * 1e9, Dist: trafficgen.Datacenter{}},
			Chain:   chainFWNAT,
			Opts:    RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 10e6},
		},
	}
}

func TestTestbedBaselineUnderLoad(t *testing.T) {
	res := smokeConfig(false, 4).run(t)
	// 4 Gbps of ~882B packets: ~0.567 Mpps, goodput ~0.19 Gbps.
	if res.SendGbps < 3.8 || res.SendGbps > 4.2 {
		t.Errorf("send = %v Gbps, want ~4", res.SendGbps)
	}
	wantGoodput := 4e9 / (882 * 8) * 336 / 1e9
	if math.Abs(res.GoodputGbps-wantGoodput) > 0.02 {
		t.Errorf("goodput = %v, want ~%.3f", res.GoodputGbps, wantGoodput)
	}
	if !res.Healthy || res.UnintendedDropRate > 0 {
		t.Errorf("unhealthy at light load: %+v", res)
	}
	if res.AvgLatencyUs <= 0 || res.AvgLatencyUs > 50 {
		t.Errorf("latency = %v µs", res.AvgLatencyUs)
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered")
	}
	if res.Splits != 0 {
		t.Error("baseline produced splits")
	}
}

func TestTestbedPayloadParkEqualGoodputBelowSaturation(t *testing.T) {
	base := smokeConfig(false, 4).run(t)
	pp := smokeConfig(true, 4).run(t)
	// Below saturation both deliver the same pps, hence equal goodput
	// (paper Fig. 7: curves overlap until the baseline saturates).
	if math.Abs(pp.GoodputGbps-base.GoodputGbps) > 0.01 {
		t.Errorf("goodput pp=%v base=%v should match below saturation", pp.GoodputGbps, base.GoodputGbps)
	}
	if pp.Splits == 0 || pp.Merges == 0 {
		t.Errorf("payloadpark inactive: %+v", pp)
	}
	if pp.Premature != 0 {
		t.Errorf("premature evictions at light load: %d", pp.Premature)
	}
	// PayloadPark moves fewer bytes to the NF server.
	if pp.ToNFGbps >= base.ToNFGbps {
		t.Errorf("toNF pp=%v >= base=%v", pp.ToNFGbps, base.ToNFGbps)
	}
	// And saves PCIe bandwidth (paper: 12% on this workload).
	if pp.PCIeGbps >= base.PCIeGbps {
		t.Errorf("pcie pp=%v >= base=%v", pp.PCIeGbps, base.PCIeGbps)
	}
}

func TestTestbedSaturationGoodputGain(t *testing.T) {
	// At 11 Gbps offered on a 10GE link the baseline saturates but
	// PayloadPark still fits: its goodput must be higher (Fig. 7 shape).
	base := smokeConfig(false, 11).run(t)
	pp := smokeConfig(true, 11).run(t)
	if base.Healthy {
		t.Errorf("baseline should be unhealthy at 11G: drop=%v", base.UnintendedDropRate)
	}
	if pp.GoodputGbps <= base.GoodputGbps*1.05 {
		t.Errorf("goodput gain missing: pp=%v base=%v", pp.GoodputGbps, base.GoodputGbps)
	}
	// Baseline latency spikes (queue full); PayloadPark stays low.
	if pp.AvgLatencyUs >= base.AvgLatencyUs {
		t.Errorf("latency pp=%v >= base=%v at baseline saturation", pp.AvgLatencyUs, base.AvgLatencyUs)
	}
}

func TestMultiServerRun(t *testing.T) {
	res := multiServerRun{
		MultiServer: MultiServer{Servers: 4, LinkBps: 10e9},
		Sections: Sections{
			Parking: Parking{Mode: ParkEdge, Slots: 8192, MaxExpiry: 1},
			Traffic: Traffic{SendBps: 3e9, Dist: trafficgen.Fixed(384)},
			Opts:    RunOptions{Seed: 3, WarmupNs: 1e6, MeasureNs: 5e6},
		},
	}.run(t)
	if len(res.PerServer) != 4 {
		t.Fatalf("servers = %d", len(res.PerServer))
	}
	for i, r := range res.PerServer {
		if r.GoodputGbps <= 0 {
			t.Errorf("server %d goodput = %v", i, r.GoodputGbps)
		}
		if r.AvgLatencyUs <= 0 {
			t.Errorf("server %d latency = %v", i, r.AvgLatencyUs)
		}
	}
	if res.SRAMAvgPct <= 0 || res.SRAMPeakPct < res.SRAMAvgPct {
		t.Errorf("SRAM avg=%v peak=%v", res.SRAMAvgPct, res.SRAMPeakPct)
	}
	// Per-server performance should be consistent (isolation, Fig. 10).
	g0 := res.PerServer[0].GoodputGbps
	for i, r := range res.PerServer {
		if math.Abs(r.GoodputGbps-g0)/g0 > 0.05 {
			t.Errorf("server %d goodput %v deviates from %v", i, r.GoodputGbps, g0)
		}
	}
}

func TestMultiServerRejectsBadCount(t *testing.T) {
	if _, err := runTopology(&MultiServer{Servers: 9}, &Sections{}, Wiring{}); err == nil {
		t.Error("no error for 9 servers")
	}
}

func TestWireBytes(t *testing.T) {
	p := mkParcel(1000)
	if WireBytes(p.Pkt) != 1000+trafficgen.WireOverheadBytes {
		t.Errorf("wire bytes = %d", WireBytes(p.Pkt))
	}
}

// The testbed group's ports, as the hand-wired tests name them.
const (
	portSplit = groupGen
	portNF    = groupNF
	portSink  = groupSink
)
