package payloadpark

// One benchmark per table and figure of the paper's evaluation, plus
// dataplane micro-benchmarks and ablations. Each figure benchmark runs a
// reduced single-configuration version of the experiment (the full sweeps
// live behind `go run ./cmd/ppbench -exp <id>`) and reports the paper's
// headline quantity via b.ReportMetric.

import (
	"io"
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/harness"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// fig is one figure benchmark's description: the Fig. 5 testbed at
// linkBps running sections s.
type fig struct {
	linkBps float64
	s       sim.Sections
}

// figure builds a figure's description with windows short enough to keep
// a benchmark iteration around a second; pp selects the PayloadPark side
// (slots-slot table, aggressive expiry) over the baseline.
func figure(name string, linkBps, sendBps float64, dist trafficgen.SizeDist, chain func() *nf.Chain, server sim.ServerModel, pp bool, slots int) fig {
	f := fig{linkBps, sim.Sections{
		Name:    name,
		Traffic: sim.Traffic{SendBps: sendBps, Dist: dist},
		Server:  server,
		Chain:   chain,
		Opts:    sim.RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 6e6},
	}}
	if pp {
		f.s.Parking = sim.Parking{Mode: sim.ParkEdge, Slots: slots, MaxExpiry: 1}
	}
	return f
}

func (f fig) run(b *testing.B) sim.Result {
	b.Helper()
	res, err := sim.RunTestbed(sim.Testbed{LinkBps: f.linkBps}, f.s, sim.Wiring{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchPair runs a baseline/PayloadPark pair and reports the goodput gain
// percentage.
func benchPair(b *testing.B, mk func(pp bool) fig) (base, pp sim.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		base = mk(false).run(b)
		pp = mk(true).run(b)
	}
	if base.GoodputGbps > 0 {
		b.ReportMetric(100*(pp.GoodputGbps-base.GoodputGbps)/base.GoodputGbps, "goodput-gain-%")
	}
	return base, pp
}

func BenchmarkFig06DatacenterCDF(b *testing.B) {
	gen := trafficgen.New(trafficgen.Config{
		Sizes: trafficgen.Datacenter{}, Flows: 1024,
		SrcMAC: sim.MACGen, DstMAC: sim.MACNF,
		DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80, Seed: 1,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
	b.ReportMetric(gen.SizeCDF().Mean(), "mean-pkt-bytes")
}

func BenchmarkFig07GoodputLatency(b *testing.B) {
	// FW->NAT->LB on NetBricks, 10GbE, datacenter traffic, at 11 Gbps
	// offered — past the baseline's saturation (paper: +13% at peak).
	benchPair(b, func(pp bool) fig {
		return figure("fig7", 10e9, 11e9, trafficgen.Datacenter{}, harness.ChainFWNATLB, harness.NetBricks10G(), pp, harness.MacroSlots)
	})
}

func BenchmarkFig08FixedSizes(b *testing.B) {
	// 384 B FW->NAT at 38 Gbps offered on 40GbE — past the baseline's
	// PCIe-bound saturation, inside PayloadPark's (paper: up to +36%).
	// Reported as drop-adjusted goodput: headers that reached the NF
	// server AND survived its NIC ring.
	var base, pp sim.Result
	for i := 0; i < b.N; i++ {
		mk := func(isPP bool) fig {
			return figure("fig8", 40e9, 38e9, trafficgen.Fixed(384), harness.ChainFWNAT, harness.OpenNetVM40G(), isPP, harness.MacroSlots)
		}
		base = mk(false).run(b)
		pp = mk(true).run(b)
	}
	eb := base.GoodputGbps * (1 - base.UnintendedDropRate)
	ep := pp.GoodputGbps * (1 - pp.UnintendedDropRate)
	if eb > 0 {
		b.ReportMetric(100*(ep-eb)/eb, "effective-goodput-gain-%")
	}
}

func BenchmarkFig09PCIe(b *testing.B) {
	// 256 B packets at a common sub-saturation rate (paper: 58% savings).
	var base, pp sim.Result
	for i := 0; i < b.N; i++ {
		mk := func(isPP bool) fig {
			return figure("fig9", 40e9, 16e9, trafficgen.Fixed(256), harness.ChainFWNAT, harness.OpenNetVM40G(), isPP, harness.MacroSlots)
		}
		base = mk(false).run(b)
		pp = mk(true).run(b)
	}
	if base.PCIeGbps > 0 {
		b.ReportMetric(100*(base.PCIeGbps-pp.PCIeGbps)/base.PCIeGbps, "pcie-savings-%")
	}
}

func benchMulti(b *testing.B, pp bool, send float64) sim.MultiServerResult {
	b.Helper()
	s := sim.Sections{
		Parking: sim.Parking{Slots: harness.SlotsForSRAMPct(0.20, false), MaxExpiry: 1},
		Traffic: sim.Traffic{SendBps: send, Dist: trafficgen.Fixed(384)},
		Server:  harness.MultiServer10G(),
		Opts:    sim.RunOptions{Seed: 1, WarmupNs: 2e6, MeasureNs: 6e6},
	}
	if pp {
		s.Parking.Mode = sim.ParkEdge
	}
	var res sim.MultiServerResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = sim.RunMultiServer(sim.MultiServer{Servers: 2, LinkBps: 10e9}, s, sim.Wiring{}); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFig10MultiServerGoodput(b *testing.B) {
	base := benchMulti(b, false, 12e9)
	pp := benchMulti(b, true, 12e9)
	g0 := base.PerServer[0].GoodputGbps
	if g0 > 0 {
		b.ReportMetric(100*(pp.PerServer[0].GoodputGbps-g0)/g0, "per-server-gain-%")
	}
}

func BenchmarkFig11MultiServerLatency(b *testing.B) {
	base := benchMulti(b, false, 7e9)
	pp := benchMulti(b, true, 7e9)
	l0 := base.PerServer[0].AvgLatencyUs
	if l0 > 0 {
		b.ReportMetric(100*(l0-pp.PerServer[0].AvgLatencyUs)/l0, "latency-win-%")
	}
}

func BenchmarkFig12EvictionPolicy(b *testing.B) {
	// 50% firewall drops: conservative eviction without explicit drops vs
	// explicit drops (paper: the latter preserves goodput).
	var noExpl, expl sim.Result
	for i := 0; i < b.N; i++ {
		mk := func(explicit bool) fig {
			f := figure("fig12", 10e9, 12e9, trafficgen.Datacenter{}, harness.ChainFWNATDrop(0.5), harness.OpenNetVM40G(), true, harness.MacroSlots)
			f.s.Parking.MaxExpiry = 10
			f.s.Parking.ExplicitDrop = explicit
			f.s.Opts.WarmupNs, f.s.Opts.MeasureNs = 60e6, 25e6
			return f
		}
		noExpl = mk(false).run(b)
		expl = mk(true).run(b)
	}
	if noExpl.GoodputGbps > 0 {
		b.ReportMetric(100*(expl.GoodputGbps-noExpl.GoodputGbps)/noExpl.GoodputGbps, "explicit-drop-gain-%")
	}
}

func BenchmarkFig13Recirculation(b *testing.B) {
	// Recirculation parks 384 B (paper: +28%, ~2x the 160 B gain).
	benchPair(b, func(pp bool) fig {
		f := figure("fig13", 10e9, 13e9, trafficgen.Datacenter{}, harness.ChainFWNATLB, harness.NetBricks10G(), pp, harness.MacroSlotsRecirc)
		f.s.Parking.Recirculate = pp
		return f
	})
}

func BenchmarkFig14MemorySweep(b *testing.B) {
	// One point of the sweep: the 17.81% SRAM table at a rate just above
	// its eviction onset; the metric is premature evictions observed.
	server := harness.MemorySweepServer()
	server.ServiceJitterPct = 0.2
	f := figure("fig14", 40e9, 16e9, trafficgen.Fixed(384), harness.ChainFWNAT, server, true, harness.SlotsForSRAMPct(0.1781, false))
	f.s.Opts.WarmupNs, f.s.Opts.MeasureNs = 15e6, 30e6
	var res sim.Result
	for i := 0; i < b.N; i++ {
		res = f.run(b)
	}
	b.ReportMetric(float64(res.Premature), "premature-evictions")
}

func BenchmarkFig15NFCycles(b *testing.B) {
	// NF-Heavy at 256 B: compute-bound, no PayloadPark gain expected.
	benchPair(b, func(pp bool) fig {
		return figure("fig15", 40e9, 10e9, trafficgen.Fixed(256), harness.ChainSynthetic("NF-Heavy", 570), harness.OpenNetVM40G(), pp, harness.MacroSlots)
	})
}

func BenchmarkFig16SmallPacketLatency(b *testing.B) {
	// 512 B FW->NAT at 40 Gbps offered: the baseline is past its cap
	// (paper: 33.6 Gbps), PayloadPark is not.
	benchPair(b, func(pp bool) fig {
		return figure("fig16", 40e9, 40e9, trafficgen.Fixed(512), harness.ChainFWNAT, harness.OpenNetVM40G(), pp, harness.MacroSlots)
	})
}

func BenchmarkTable1Resources(b *testing.B) {
	var sram float64
	for i := 0; i < b.N; i++ {
		sw := core.NewSwitch("table1")
		for pipe := 0; pipe < 4; pipe++ {
			_, err := sw.AttachPayloadPark(core.Config{
				Slots: harness.SlotsForSRAMPct(0.26, false), MaxExpiry: 1,
				SplitPort: PortID(core.PortsPerPipe * pipe), MergePort: PortID(core.PortsPerPipe*pipe + 1),
			}, -1)
			if err != nil {
				b.Fatal(err)
			}
		}
		sram = sw.Pipe(0).Resources().SRAMAvgPct
	}
	b.ReportMetric(sram, "sram-avg-%")
}

func BenchmarkS621Equivalence(b *testing.B) {
	// The §6.2.6 functional-equivalence check via the harness.
	eq, ok := harness.ByID("equiv")
	if !ok {
		b.Fatal("equiv experiment missing")
	}
	for i := 0; i < b.N; i++ {
		if err := eq.Run(harness.Options{Quick: true, Seed: 1}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Dataplane micro-benchmarks and ablations ----

func benchInjectLoop(b *testing.B, cfg core.Config, size int, attach bool) {
	sw := core.NewSwitch("bench")
	sw.AddL2Route(sim.MACNF, 1)
	sw.AddL2Route(sim.MACSink, 2)
	if attach {
		if _, err := sw.AttachPayloadPark(cfg, map[bool]int{true: 1, false: -1}[cfg.Recirculate]); err != nil {
			b.Fatal(err)
		}
	}
	flow := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	builder := packet.NewBuilder(sim.MACGen, sim.MACNF)
	proto := builder.UDP(flow, size, 1)
	bp := make([]core.BatchPacket, 1)
	res := make([]core.BatchResult, 1)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp[0] = core.BatchPacket{Pkt: proto.Clone(), In: 0}
		sw.InjectBatch(bp, res)
		if out := res[0].Em.Pkt; out != nil && out.PP != nil && out.PP.Enabled {
			out.Eth.Dst = sim.MACSink
			bp[0] = core.BatchPacket{Pkt: out, In: 1}
			sw.InjectBatch(bp, res)
		}
	}
}

// ---- Zero-allocation hot-path benchmarks ----
//
// These assert the steady-state allocation contract of the pooled/batched
// dataplane: FillPHV into a pooled PHV, Pipeline.Process, FrameBurst, and
// InjectBatch run at 0 allocs/op once warm. CI runs them with
// -benchtime=1x as a does-it-still-run check; the measured ledger is
// bench/ (bash bench/run.sh).

// benchPipe builds a configured pipe + packet for the rmt-level benchmarks.
func benchPipe(b *testing.B) (*core.Switch, *packet.Packet) {
	sw := core.NewSwitch("bench")
	sw.AddL2Route(sim.MACNF, 1)
	sw.AddL2Route(sim.MACSink, 2)
	if _, err := sw.AttachPayloadPark(core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err != nil {
		b.Fatal(err)
	}
	flow := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	return sw, packet.NewBuilder(sim.MACGen, sim.MACNF).UDP(flow, 882, 1)
}

func BenchmarkFillPHV(b *testing.B) {
	sw, pkt := benchPipe(b)
	pipe := sw.Pipe(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phv := pipe.AcquirePHV()
		pipe.Parser().FillPHV(phv, pkt, 0)
		pipe.ReleasePHV(phv)
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	sw, pkt := benchPipe(b)
	pipe := sw.Pipe(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phv := pipe.AcquirePHV()
		pipe.Parser().FillPHV(phv, pkt, 3) // port 3: no program rules fire, pure MAT walk
		pipe.Process(phv)
		pipe.ReleasePHV(phv)
	}
}

func BenchmarkFrameBurst(b *testing.B) {
	// The frame path: split + merge round trip through a one-slot burst,
	// entirely in reused scratch (0 allocs/op in steady state).
	sw, pkt := benchPipe(b)
	frame := pkt.Serialize()
	fb := sw.NewFrameBurst(1)
	var splitOut, mergeOut []byte
	hop := func(in []byte, port PortID, out []byte) []byte {
		fb.Reset()
		if err := fb.Add(in, port); err != nil {
			b.Fatal(err)
		}
		r := &fb.Run()[0]
		if !r.OK {
			b.Fatal(r.Reason)
		}
		return r.Em.Pkt.AppendSerialize(out[:0])
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		splitOut = hop(frame, 0, splitOut)
		copy(splitOut[0:6], sim.MACSink[:])
		mergeOut = hop(splitOut, 1, mergeOut)
	}
}

// benchBatch builds a one-pipe batch workload of split-eligible packets.
func benchBatch(b *testing.B, n int) (*core.Switch, []core.BatchPacket) {
	sw, _ := benchPipe(b)
	builder := packet.NewBuilder(sim.MACGen, sim.MACNF)
	batch := make([]core.BatchPacket, n)
	for i := range batch {
		flow := packet.FiveTuple{
			SrcIP: packet.IPv4Addr{10, 0, 1, byte(i)}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
			SrcPort: uint16(5000 + i), DstPort: 80, Protocol: packet.IPProtoUDP,
		}
		batch[i] = core.BatchPacket{Pkt: builder.UDP(flow, 882, uint16(i)), In: 0}
	}
	return sw, batch
}

func BenchmarkInjectBatch(b *testing.B) {
	// Split + merge round trips over recycled packets: 0 allocs/op once
	// warm (pooled PHVs, stash-headroom reassembly, in-place results).
	const n = 64
	sw, batch := benchBatch(b, n)
	results := make([]core.BatchResult, n)
	merges := make([]core.BatchPacket, 0, n)
	mres := make([]core.BatchResult, n)
	b.ReportAllocs()
	b.SetBytes(int64(n * 882))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.InjectBatch(batch, results)
		merges = merges[:0]
		for j := range batch {
			if results[j].OK && results[j].Em.Pkt.PP != nil {
				results[j].Em.Pkt.Eth.Dst = sim.MACSink
				merges = append(merges, core.BatchPacket{Pkt: results[j].Em.Pkt, In: 1})
			}
		}
		sw.InjectBatch(merges, mres[:len(merges)])
		for j := range merges {
			merges[j].Pkt.Eth.Dst = sim.MACNF
		}
	}
}

func BenchmarkDataplaneSplitMerge(b *testing.B) {
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, 882, true)
}

func BenchmarkDataplaneBaselineL2(b *testing.B) {
	benchInjectLoop(b, core.Config{}, 882, false)
}

func BenchmarkAblationRecirculation(b *testing.B) {
	// Per-packet cost of the second pipeline pass (384 B parked).
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true}, 882, true)
}

func BenchmarkAblationTableSize64k(b *testing.B) {
	// Table size must not affect per-packet cost (O(1) register indexing).
	benchInjectLoop(b, core.Config{Slots: 65536, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, 882, true)
}

func BenchmarkAblationExpiry10(b *testing.B) {
	// Conservative expiry: same per-packet cost, different policy.
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 10, SplitPort: 0, MergePort: 1}, 882, true)
}

func BenchmarkAblationSmallPacketPath(b *testing.B) {
	// Packets below the parking threshold take the ENB=0 path.
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, 128, true)
}

func BenchmarkAblationBoundaryOffset(b *testing.B) {
	// Per-packet cost with the §7 decoupling boundary at 64 B: the
	// visible-prefix copy adds to split/merge work.
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1, BoundaryOffset: 64}, 882, true)
}
