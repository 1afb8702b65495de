package sim

import (
	"testing"
	"unsafe"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// coreTestGen builds a fixed-size generator with enough flows that the
// RSS hash spreads load evenly across 8 cores.
func coreTestGen(seed int64) *trafficgen.Generator {
	return trafficgen.New(trafficgen.Config{
		Sizes: trafficgen.Fixed(384), Flows: 4096,
		SrcMAC: MACGen, DstMAC: MACNF,
		DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80,
		Seed: seed,
	})
}

func TestRSSHashSpreadsFlows(t *testing.T) {
	gen := coreTestGen(1)
	const cores = 8
	var perCore [cores]int
	const n = 40000
	for i := 0; i < n; i++ {
		p := gen.Next()
		perCore[RSSHash(p.FiveTuple())%cores]++
		gen.Recycle(p)
	}
	for c, got := range perCore {
		share := float64(got) / n
		if share < 0.08 || share > 0.18 {
			t.Errorf("core %d share = %.3f, want ~0.125 (counts %v)", c, share, perCore)
		}
	}
	// The hash must be a pure flow function: same tuple, same core.
	p := gen.Next()
	if RSSHash(p.FiveTuple()) != RSSHash(p.FiveTuple()) {
		t.Error("RSSHash not deterministic")
	}
}

// rxKneeDrops offers the given packet rate to a server with the given
// core count for runNs and reports the NIC ring drops. The model is RX
// bound: empty NF chain, effectively infinite PCIe, 500 ns per-packet
// per-core RX cost (a 2 Mpps single-core knee).
func rxKneeDrops(t *testing.T, cores int, mpps float64, runNs int64) uint64 {
	t.Helper()
	eng := NewEngine()
	model := ServerModel{
		FreqHz: 2.3e9, Cores: cores,
		RxFixedNs: 500, RxPerByteNs: 0,
		NICRing: 512, StageQueue: 4096,
		PCIeBps: 1e14, PCIeOverheadBytes: 8,
	}
	gen := coreTestGen(7)
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain()})
	s := NewServerSim(eng, model, srv, 1,
		func(p Parcel) { gen.Recycle(p.Pkt) },
		func(p Parcel, _ string) { gen.Recycle(p.Pkt) },
		nil)
	gap := int64(1e3 / mpps) // ns between arrivals
	if gap < 1 {
		gap = 1
	}
	var sendNext func()
	sendNext = func() {
		s.Receive(Parcel{Pkt: gen.Next()})
		if eng.Now()+gap < runNs {
			eng.Schedule(gap, sendNext)
		}
	}
	eng.Schedule(0, sendNext)
	eng.Run(runNs + 1e6)
	return s.RxDrops.Value()
}

// TestServerSimCoreScalingKnee is the saturation-scaling acceptance test:
// with per-core costs fixed, an 8-core server must sustain at least 6x
// the single-core knee before RX drops appear, while a single core at the
// same offered load drops heavily.
func TestServerSimCoreScalingKnee(t *testing.T) {
	const runNs = 20e6
	// Single core: knee at 2 Mpps. Clean just below it...
	if d := rxKneeDrops(t, 1, 1.8, runNs); d != 0 {
		t.Errorf("1 core at 1.8 Mpps: %d RX drops, want 0", d)
	}
	// ...overloaded at 3x the offered load an 8-core box shrugs off.
	if d := rxKneeDrops(t, 1, 6, runNs); d == 0 {
		t.Error("1 core at 6 Mpps: no RX drops, expected overload")
	}
	// 8 cores sustain >= 6x the single-core knee with zero drops.
	if d := rxKneeDrops(t, 8, 12, runNs); d != 0 {
		t.Errorf("8 cores at 12 Mpps (6x single-core knee): %d RX drops, want 0", d)
	}
	// And saturate eventually: the shared ring still overflows past the
	// aggregate capacity.
	if d := rxKneeDrops(t, 8, 20, runNs); d == 0 {
		t.Error("8 cores at 20 Mpps: no RX drops, expected overload")
	}
}

// TestServerSimCoresPreserveWorkConservation: at light load every core
// count processes every packet — sharding changes queueing, not totals.
func TestServerSimCoresPreserveWorkConservation(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		eng := NewEngine()
		model := DefaultServerModel()
		model.Cores = cores
		gen := coreTestGen(3)
		out := 0
		srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})})
		s := NewServerSim(eng, model, srv, 1,
			func(p Parcel) { out++; gen.Recycle(p.Pkt) }, nil, nil)
		const n = 2000
		for i := 0; i < n; i++ {
			eng.Schedule(int64(i)*1000, func() { s.Receive(Parcel{Pkt: gen.Next()}) })
		}
		eng.Run(1e9)
		if out != n {
			t.Errorf("cores=%d: %d of %d packets emerged", cores, out, n)
		}
		if got := len(s.CoreStats()); got != cores {
			t.Errorf("%d per-core records, want %d", got, cores)
		}
	}
}

// jitteredOutTimes runs three jittered packets through a server built
// with the given seed and returns their output times.
func jitteredOutTimes(seed int64) [3]int64 {
	eng := NewEngine()
	model := DefaultServerModel()
	model.Cores = 1
	model.ServiceJitterPct = 0.4
	var times [3]int64
	i := 0
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.NewSynthetic("S", 2300))})
	s := NewServerSim(eng, model, srv, seed,
		func(Parcel) { times[i] = eng.Now(); i++ }, nil, nil)
	for k := 0; k < 3; k++ {
		s.Receive(mkParcel(500))
	}
	eng.Run(1e7)
	return times
}

// TestJitterSeedDerivedFromExperimentSeed: jittered service times must
// reproduce for equal seeds and differ across seeds (the RNG is no
// longer hard-coded).
func TestJitterSeedDerivedFromExperimentSeed(t *testing.T) {
	a, b := jitteredOutTimes(1), jitteredOutTimes(1)
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	c := jitteredOutTimes(2)
	if a == c {
		t.Error("different seeds produced identical jitter streams")
	}
}

// TestJitterSourceOnlyWhenJittered: a server without service jitter seeds
// no random source (one seeding costs ~14 µs, paid by every server of a
// set-up), and a jittered one draws the stream it always did: its output
// times are the ones recorded while every server seeded a source.
func TestJitterSourceOnlyWhenJittered(t *testing.T) {
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.NewSynthetic("S", 2300))})
	if s := NewServerSim(NewEngine(), DefaultServerModel(), srv, 1, func(Parcel) {}, nil, nil); s.rng != nil {
		t.Error("a jitter-free server seeded a random source")
	}
	for seed, want := range map[int64][3]int64{1: {1120, 1848, 3172}, 2: {1405, 2287, 3392}, 7: {1254, 1936, 3163}} {
		if got := jitteredOutTimes(seed); got != want {
			t.Errorf("seed %d: jittered output times %v, want %v", seed, got, want)
		}
	}
}

// TestDropPathsRecycleAllocFree drives a lossy, overflowing path — link
// queue overflow, in-flight link loss, NIC ring overflow — with every
// terminal point recycling into the generator, and asserts the steady
// state allocates nothing: no drop path may leak its pooled packet.
func TestDropPathsRecycleAllocFree(t *testing.T) {
	eng := NewEngine()
	gen := coreTestGen(11)
	model := ServerModel{
		FreqHz: 2.3e9, Cores: 2,
		RxFixedNs: 5000, RxPerByteNs: 0, // slow server: the ring overflows
		NICRing: 4, StageQueue: 4,
		PCIeBps: 1e14, PCIeOverheadBytes: 8,
	}
	recycle := func(p Parcel, _ string) { gen.Recycle(p.Pkt) }
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain()})
	s := NewServerSim(eng, model, srv, 1,
		func(p Parcel) { gen.Recycle(p.Pkt) }, recycle, nil)
	// Tiny queue (overflow drops) + 25% in-flight loss.
	link := NewLink(eng, 40e9, 100, 2048, s.Receive, recycle)
	link.LossRate = 0.25

	round := func() {
		for i := 0; i < 32; i++ {
			link.Send(Parcel{Pkt: gen.Next()})
		}
		eng.Run(eng.Now() + 10e6) // drain fully: every packet reaches a terminal point
	}
	round() // warm pools, heap and slot table
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("lossy drop paths allocate %.1f/round, want 0 (leaked packets?)", allocs)
	}
	if link.Drops.Value() == 0 || link.Lost.Value() == 0 || s.RxDrops.Value() == 0 {
		t.Errorf("test exercised no drop paths: queue=%d lost=%d ring=%d",
			link.Drops.Value(), link.Lost.Value(), s.RxDrops.Value())
	}
}

// TestSizeofEventPayloadPins guards ROADMAP items 2(a) and 2(h): every
// link and station hop copies a Parcel into and out of an event record,
// and a record — time, bucket link, two handlers and the parcel — is the
// only memory an event touches, so neither may grow past one cache line.
func TestSizeofEventPayloadPins(t *testing.T) {
	if n := unsafe.Sizeof(Parcel{}); n > 32 {
		t.Errorf("unsafe.Sizeof(Parcel{}) = %d, want <= 32 (ROADMAP item 2(a): park per-station state in the station, not in the event)", n)
	}
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want <= 64 (ROADMAP item 2(h): one record per event, one cache line)", n)
	}
}

// fwNatLB is the paper's three-NF chain with a firewall no generated
// packet matches.
func fwNatLB(t testing.TB) *nf.Chain {
	t.Helper()
	lb, err := nf.NewLoadBalancer(map[string]packet.IPv4Addr{"b0": {10, 2, 0, 10}, "b1": {10, 2, 0, 11}})
	if err != nil {
		t.Fatal(err)
	}
	return nf.NewChain(
		nf.NewFirewall([]nf.FirewallRule{{Prefix: packet.IPv4Addr{172, 16, 0, 0}, Bits: 12}}),
		nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}), lb)
}

// TestChainPathAllocFree drives the whole simulated packet path —
// generator -> link -> ServerSim -> link -> sink — with chains that charge
// stages (TestDropPathsRecycleAllocFree's is empty, so its verdicts carry
// no costs) and asserts the steady state allocates nothing: the verdict's
// costs alias the nf.Server's buffer and park in the job table.
func TestChainPathAllocFree(t *testing.T) {
	chains := map[string]func() *nf.Chain{
		"FW->NAT->LB": func() *nf.Chain { return fwNatLB(t) },
		"MACSwap":     macSwapChain,
	}
	for name, chain := range chains {
		f := NewFabric()
		eng := f.eng
		gen := trafficgen.New(trafficgen.Config{
			Sizes: trafficgen.Datacenter{}, Flows: 32, // few flows: the NAT learns them all while warming up
			SrcMAC: MACGen, DstMAC: MACNF, DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80, Seed: 5,
		})
		recycle := func(p Parcel, _ string) { gen.Recycle(p.Pkt) }
		sink := f.AddSink("sink", 1<<62, gen.Recycle)
		toSink := f.NewLink("nf->sink", 40e9, 100, 1<<20, sink.Receive, recycle)
		model := DefaultServerModel()
		model.Cores = 2
		srv := NewServerSim(eng, model, nf.NewServer(nf.ServerConfig{Chain: chain()}), 1,
			toSink.Send, recycle, func(p Parcel) { gen.Recycle(p.Pkt) })
		toNF := f.NewLink("gen->nf", 40e9, 100, 1<<20, srv.Receive, recycle)
		src := f.AddSource("gen", gen, toNF, 10e9)
		src.WindowEnd = 1 << 62

		round := func() {
			src.StopAt = eng.Now() + 50e3 // ~70 packets
			src.Start(eng.Now())
			eng.Run(eng.Now() + 1e6) // drain: every packet reaches the sink
		}
		for i := 0; i < 8; i++ {
			round() // warm pools, slot and job tables, NAT flow table
		}
		delivered := sink.Delivered
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Errorf("%s: packet path allocates %.2f/round, want 0", name, allocs)
		}
		if sink.Delivered == delivered || toNF.Drops.Value()+toSink.Drops.Value()+srv.RxDrops.Value()+srv.StageDrops.Value() != 0 {
			t.Errorf("%s: rounds delivered %d packets with drops; want a clean forwarding path", name, sink.Delivered-delivered)
		}
		if len(srv.freeJobs) != len(srv.jobs) {
			t.Errorf("%s: %d of %d job rows still claimed after the drain", name, len(srv.jobs)-len(srv.freeJobs), len(srv.jobs))
		}
	}
}

// TestJobTableReleasedAtEveryExit: a verdict parked at rxDone is released
// at each of the three ways out of the server — stage-queue overflow, a
// consumed (firewall-dropped) packet, and a forward — so after a full
// drain every row is back on the free list, and an identical second round
// reuses the table without growing it.
func TestJobTableReleasedAtEveryExit(t *testing.T) {
	eng := NewEngine()
	model := DefaultServerModel()
	model.Cores = 1
	model.StageQueue = 4
	chain := nf.NewChain(nf.NewFirewall(nf.BlacklistFraction(0.3)), nf.NewSynthetic("Slow", 50_000))
	gen := coreTestGen(13)
	var forwarded, consumed, dropped int
	s := NewServerSim(eng, model, nf.NewServer(nf.ServerConfig{Chain: chain}), 1,
		func(p Parcel) { forwarded++; gen.Recycle(p.Pkt) },
		func(p Parcel, _ string) { dropped++; gen.Recycle(p.Pkt) },
		func(p Parcel) { consumed++; gen.Recycle(p.Pkt) })
	round := func() {
		for i := 0; i < 64; i++ {
			s.Receive(Parcel{Pkt: gen.Next()})
		}
		eng.Run(eng.Now() + 1e9)
	}
	round()
	if forwarded == 0 || consumed == 0 || s.StageDrops.Value() == 0 {
		t.Fatalf("round exercised forwarded=%d consumed=%d stage drops=%d; want all three exits",
			forwarded, consumed, s.StageDrops.Value())
	}
	if forwarded+consumed+dropped != 64 {
		t.Fatalf("%d of 64 packets reached an exit", forwarded+consumed+dropped)
	}
	rows := len(s.jobs)
	if len(s.freeJobs) != rows || len(s.jobCycles) != rows*chain.Len() {
		t.Fatalf("after the drain %d of %d job rows are free (%d cycle cells): a verdict leaked",
			len(s.freeJobs), rows, len(s.jobCycles))
	}
	round()
	if len(s.jobs) != rows || len(s.freeJobs) != rows {
		t.Errorf("second round grew the job table %d -> %d rows (%d free)", rows, len(s.jobs), len(s.freeJobs))
	}
}

// TestStageOverflowReportsAndRecycles: the inter-NF ring overflow is a
// terminal drop point too — every dropped parcel reaches onDrop exactly
// once so its owner can recycle it.
func TestStageOverflowReportsAndRecycles(t *testing.T) {
	eng := NewEngine()
	model := DefaultServerModel()
	model.Cores = 1
	model.StageQueue = 1
	recycled := 0
	var reason string
	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.NewSynthetic("Slow", 1e9))})
	s := NewServerSim(eng, model, srv, 1,
		func(Parcel) {},
		func(p Parcel, r string) { recycled++; reason = r },
		nil)
	for i := 0; i < 10; i++ {
		s.Receive(mkParcel(200))
	}
	eng.Run(1e6)
	if s.StageDrops.Value() == 0 {
		t.Fatal("stage queue never overflowed")
	}
	if uint64(recycled) != s.StageDrops.Value() {
		t.Errorf("onDrop called %d times for %d stage drops", recycled, s.StageDrops.Value())
	}
	if reason != "stage queue overflow" {
		t.Errorf("reason = %q", reason)
	}
}

// TestMultiServerGoodputAccounting: at equal sub-saturation offered load
// both deployments deliver the same packet rate, so the baseline — whose
// full payloads cross the to-NF link — must load that link (ToNFGbps)
// strictly more than PayloadPark's header-only packets.
func TestMultiServerGoodputAccounting(t *testing.T) {
	mk := func(pp bool) multiServerRun {
		r := multiServerRun{
			MultiServer: MultiServer{Servers: 2, LinkBps: 10e9},
			Sections: Sections{
				Parking: Parking{Slots: 8192, MaxExpiry: 1},
				Traffic: Traffic{SendBps: 2e9, Dist: trafficgen.Fixed(384)},
				Opts:    RunOptions{Seed: 5, WarmupNs: 2e6, MeasureNs: 8e6},
			},
		}
		if pp {
			r.Parking.Mode = ParkEdge
		}
		return r
	}
	base := mk(false).run(t)
	pp := mk(true).run(t)
	for i := range base.PerServer {
		b, p := base.PerServer[i], pp.PerServer[i]
		if b.ToNFGbps <= p.ToNFGbps {
			t.Errorf("server %d: baseline moved %.3f Gbps <= payloadpark %.3f — payload bits not accounted",
				i, b.ToNFGbps, p.ToNFGbps)
		}
		// Splitting parks 160 of 384 bytes: the link-bit ratio must
		// reflect it (header remainder + 24 B wire overhead is ~62% of the
		// original frame's 408 wire bytes).
		if p.ToNFGbps > 0.75*b.ToNFGbps {
			t.Errorf("server %d: pp/base link-bit ratio %.2f, want < 0.75",
				i, p.ToNFGbps/b.ToNFGbps)
		}
		// Same offered load, both healthy: same delivered packet rate.
		if b.ToNFMpps == 0 || p.ToNFMpps == 0 {
			t.Fatalf("server %d: delivered packet rate not recorded (base %.2f, pp %.2f)",
				i, b.ToNFMpps, p.ToNFMpps)
		}
		if ratio := p.ToNFMpps / b.ToNFMpps; ratio < 0.98 || ratio > 1.02 {
			t.Errorf("server %d: delivered pps diverged below saturation: base %.3f pp %.3f",
				i, b.ToNFMpps, p.ToNFMpps)
		}
		// Baseline link bits track the offered 2 Gbps of 384 B frames, each
		// 408 B on the wire.
		if wire := 408.0 / 384; b.ToNFGbps < 1.85*wire || b.ToNFGbps > 2.1*wire {
			t.Errorf("server %d: baseline moved %.3f Gbps, want ~%.3f", i, b.ToNFGbps, 2*wire)
		}
	}
}

// TestMultiServerCoresOverride: the server section's Cores knob changes
// saturation — at an offered load past the single-core knee, 8 cores
// deliver several times the single-core packet rate.
func TestMultiServerCoresOverride(t *testing.T) {
	mk := func(cores int) multiServerRun {
		return multiServerRun{
			MultiServer: MultiServer{Servers: 1, LinkBps: 10e9},
			Sections: Sections{
				Parking: Parking{Slots: 8192, MaxExpiry: 1},
				Traffic: Traffic{SendBps: 8e9, Dist: trafficgen.Fixed(384)},
				Server: ServerModel{
					FreqHz: 2.4e9, Cores: cores, RxFixedNs: 1712, RxPerByteNs: 0.6,
					NICRing: 1024, StageQueue: 4096,
					PCIeBps: 31.5e9, PCIeOverheadBytes: 8,
				},
				Opts: RunOptions{Seed: 9, WarmupNs: 2e6, MeasureNs: 10e6},
			},
		}
	}
	one := mk(1).run(t).PerServer[0]
	eight := mk(8).run(t).PerServer[0]
	// 8 Gbps of 384 B packets is ~2.6 Mpps: ~5x a single core's ~0.5 Mpps
	// capacity but well inside the 8-core aggregate, so the single-core
	// run must shed most of its load at the NIC ring while the 8-core run
	// stays clean.
	if one.UnintendedDropRate < 0.5 {
		t.Errorf("single core at 8 Gbps should drop most packets, got %.4f", one.UnintendedDropRate)
	}
	if eight.UnintendedDropRate > 0.01 {
		t.Errorf("8 cores at 8 Gbps should be near-clean, got %.4f", eight.UnintendedDropRate)
	}
	if !eight.Healthy || eight.AvgLatencyUs <= 0 {
		t.Errorf("8-core run unhealthy or silent: %+v", eight)
	}
}
