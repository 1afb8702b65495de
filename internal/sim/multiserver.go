package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// MultiServerConfig describes the §6.2.3 deployment: up to 8 NF servers
// (each running a MAC swapper) sharing one switch, two servers per pipe,
// with the reserved switch memory statically sliced between them.
type MultiServerConfig struct {
	// Servers is the NF server count (1..8).
	Servers int
	// LinkBps is each server's link rate; SendBps the per-server offered load.
	LinkBps float64
	SendBps float64
	// Dist draws packet sizes (the paper uses Fixed(384)).
	Dist trafficgen.SizeDist
	// SlotsPerServer sizes each server's sliced lookup table.
	SlotsPerServer int
	// MaxExpiry is the eviction threshold.
	MaxExpiry uint32
	// Server calibrates the NF server machines (8-core 2.4 GHz Xeons in
	// the paper).
	Server ServerModel
	// Cores, when non-zero, overrides Server.Cores on every server — the
	// knob the core-count sweeps turn without restating the calibration.
	Cores int
	// PayloadPark toggles the optimization (false = baseline).
	PayloadPark bool
	Seed        int64
	WarmupNs    int64
	MeasureNs   int64
	// Cancel, when non-nil, is polled periodically by the event engine;
	// once it returns true the run stops early and the result is partial.
	Cancel func() bool
	// Obs arms the observability layer (metrics and/or the flight
	// recorder); the zero value keeps it off.
	Obs ObsConfig
}

// Validate reports a server count the switch cannot host (two per pipe).
// Scenario validation returns its error; RunMultiServer panics with it.
func (c MultiServerConfig) Validate() error {
	if c.Servers < 1 || c.Servers > 8 {
		return fmt.Errorf("servers = %d outside [1,8]", c.Servers)
	}
	return nil
}

// MultiServerFlows is each generator's 5-tuple pool size: large enough
// that the RSS hash spreads load over 8 cores with only a few percent of
// share noise, small enough to keep flow state cheap. Exported so the
// harness's single-server peak probes offer the same RSS load
// distribution as the multi-server runs they calibrate.
const MultiServerFlows = 2048

// MultiServerResult reports per-server and aggregate outcomes. Note the
// metric fork documented on Result.GoodputGbps: in PerServer entries it
// holds the bits that actually crossed the to-NF link; derive the
// paper's header-unit goodput as ToNFMpps × 42 B × 8.
type MultiServerResult struct {
	PerServer []Result `json:"per_server"`
	// Switch resource utilization with all programs installed (Table 1's
	// SRAM rows): average and peak per-stage SRAM over used pipes.
	SRAMAvgPct  float64 `json:"sram_avg_pct"`
	SRAMPeakPct float64 `json:"sram_peak_pct"`
}

// RunMultiServer simulates all servers against one shared switch in a
// single discrete-event run. It is a preset over Fabric: one switch node
// whose per-ingress-port drop hooks charge each tenant's failures to its
// own counters and packet pool.
func RunMultiServer(cfg MultiServerConfig) MultiServerResult {
	if err := cfg.Validate(); err != nil {
		panic("sim: multiserver " + err.Error())
	}
	if cfg.WarmupNs == 0 {
		cfg.WarmupNs = 10e6
	}
	if cfg.MeasureNs == 0 {
		cfg.MeasureNs = 50e6
	}
	if cfg.Server.FreqHz == 0 {
		cfg.Server = DefaultServerModel()
	}
	if cfg.Cores > 0 {
		cfg.Server.Cores = cfg.Cores
	}
	f := NewFabric()
	f.Engine().Cancel = cfg.Cancel
	swn := f.AddSwitch("multiserver")
	sw := swn.SW
	windowStart := cfg.WarmupNs
	windowEnd := cfg.WarmupNs + cfg.MeasureNs

	results := make([]Result, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		wireServer(f, swn, cfg, i, windowStart, windowEnd, &results[i])
	}
	f.EnableObs(cfg.Obs)
	f.Run(windowEnd + cfg.WarmupNs)

	out := MultiServerResult{PerServer: results}
	pipes := (cfg.Servers + 1) / 2
	for p := 0; p < pipes; p++ {
		u := sw.Pipe(p).Resources()
		out.SRAMAvgPct += u.SRAMAvgPct
		if u.SRAMPeakPct > out.SRAMPeakPct {
			out.SRAMPeakPct = u.SRAMPeakPct
		}
	}
	out.SRAMAvgPct /= float64(pipes)
	return out
}

// wireServer attaches one generator/server pair to the shared switch
// node. Server i lives on pipe i/2; the second server of a pipe uses the
// upper port block. The server's two ingress ports register per-port
// drop hooks, so its failures recycle into its own generator pool.
func wireServer(f *Fabric, swn *SwitchNode, cfg MultiServerConfig, i int, windowStart, windowEnd int64, res *Result) {
	eng := f.Engine()
	pipe := i / 2
	base := rmt.PortID(core.PortsPerPipe*pipe + 8*(i%2))
	split, nfPort, sinkPort := base, base+1, base+2

	macGen := packet.MAC{0x02, 0x10, 0, 0, 0, byte(i)}
	macNF := packet.MAC{0x02, 0x20, 0, 0, 0, byte(i)}
	macSink := packet.MAC{0x02, 0x30, 0, 0, 0, byte(i)}
	swn.SW.AddL2Route(macNF, nfPort)
	swn.SW.AddL2Route(macSink, sinkPort)
	swn.SW.AddL2Route(macGen, sinkPort) // MAC swap returns toward the generator

	if cfg.PayloadPark {
		_, err := swn.SW.AttachPayloadPark(core.Config{
			Slots: cfg.SlotsPerServer, MaxExpiry: cfg.MaxExpiry,
			SplitPort: split, MergePort: nfPort,
		}, -1)
		if err != nil {
			panic(fmt.Sprintf("sim: multiserver attach %d: %v", i, err))
		}
	}

	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})})
	gen := trafficgen.New(trafficgen.Config{
		Sizes: cfg.Dist, Flows: MultiServerFlows,
		SrcMAC: macGen, DstMAC: macNF,
		DstIP: packet.IPv4Addr{10, 1, byte(i), 9}, DstPort: 80,
		Seed: cfg.Seed + int64(i),
	})
	// Every terminal point (sink delivery, any drop, NF consumption) hands
	// the packet back to the generator, so multi-server runs reuse packets
	// like the single-server testbed does.
	recycle := gen.Recycle

	res.Name = fmt.Sprintf("server-%d", i+1)
	goodput := stats.NewRateMeter(windowStart)
	toNF := stats.NewRateMeter(windowStart)
	sentBits := stats.NewRateMeter(windowStart)
	var sent, drops uint64
	onDrop := func(p Parcel, _ string) {
		if p.InWindow {
			drops++
		}
		recycle(p.Pkt)
	}
	consumed := func(p Parcel) { recycle(p.Pkt) }

	name := func(hop string) string { return fmt.Sprintf("%s[%d]", hop, i+1) }
	returnLink := f.NewLink(name("nf->switch"), cfg.LinkBps, 500, 1<<20,
		swn.IngressWith(nfPort, onDrop, consumed), onDrop)
	srvSim := NewServerSim(eng, cfg.Server, srv, cfg.Seed+(int64(i)+1)<<40,
		returnLink.Send, onDrop, consumed)
	toNFLink := f.NewLink(name("switch->nf"), cfg.LinkBps, 500, 1<<20,
		func(p Parcel) {
			if now := eng.Now(); p.InWindow && now <= windowEnd {
				// Goodput records what actually crossed the link: the full
				// packet for a baseline run, the header remainder for a
				// PayloadPark run. The paper's header-unit goodput is
				// derived from the delivered packet rate (ToNFMpps).
				goodput.Record(now, float64(p.Pkt.Len()*8))
				toNF.Record(now, float64(WireBytes(p.Pkt)*8))
			}
			srvSim.Receive(p)
		}, onDrop)
	sink := f.AddSink(name("sink"), windowEnd, recycle)
	sinkLink := f.NewLink(name("switch->sink"), 2*cfg.LinkBps, 500, 2<<20,
		sink.Receive, onDrop)
	genLink := f.NewLink(name("gen->switch"), 2*cfg.LinkBps, 500, 4<<20,
		swn.IngressWith(split, onDrop, consumed), onDrop)

	swn.SetOut(nfPort, toNFLink)
	swn.SetOut(sinkPort, sinkLink)

	src := f.AddSource(name("gen"), gen, genLink, cfg.SendBps)
	src.WindowStart, src.WindowEnd = windowStart, windowEnd
	src.StopAt = windowEnd + cfg.WarmupNs/2
	src.OnSend = func(p Parcel) {
		sent++
		sentBits.Record(eng.Now(), float64(p.Pkt.Len()*8))
	}
	src.Start(int64(i) * 97) // desynchronize servers slightly

	// Finalize this server's result when the run ends.
	eng.ScheduleAt(windowEnd+cfg.WarmupNs-1, func() {
		goodput.CloseAt(windowEnd)
		toNF.CloseAt(windowEnd)
		sentBits.CloseAt(windowEnd)
		res.PerCore = srvSim.CoreStats()
		res.SendGbps = sentBits.Gbps()
		res.Delivered = sink.Delivered
		res.GoodputGbps = goodput.Gbps()
		res.ToNFGbps = toNF.Gbps()
		res.ToNFMpps = toNF.Mpps()
		res.AvgLatencyUs = sink.Latency.Mean()
		res.MaxLatencyUs = sink.Latency.Max()
		res.JitterUs = sink.Latency.Max() - sink.Latency.Mean()
		if sent > 0 {
			res.UnintendedDropRate = float64(drops) / float64(sent)
		}
		res.Healthy = res.UnintendedDropRate < HealthyDropRate
	})
}
