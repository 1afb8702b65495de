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
// single discrete-event run, after resolving and validating the sections
// (an error, never a panic, for a description the switch cannot hold). It
// is a preset over Fabric: one switch node whose per-ingress-port drop
// hooks charge each tenant's failures to its own counters and packet
// pool.
func RunMultiServer(m MultiServer, s Sections, w Wiring) (MultiServerResult, error) {
	m.Resolve(&s)
	if err := m.Validate(s); err != nil {
		return MultiServerResult{}, err
	}
	f := NewFabric()
	f.Engine().Cancel = w.Cancel
	swn := f.AddSwitch("multiserver")
	sw := swn.SW
	windowEnd := s.Opts.WarmupNs + s.Opts.MeasureNs

	results := make([]Result, m.Servers)
	for i := 0; i < m.Servers; i++ {
		if err := wireServer(f, swn, m, s, i, &results[i]); err != nil {
			return MultiServerResult{}, err
		}
	}
	f.EnableObs(w.Obs)
	f.Run(windowEnd + s.Opts.WarmupNs)

	out := MultiServerResult{PerServer: results}
	pipes := (m.Servers + 1) / 2
	for p := 0; p < pipes; p++ {
		u := sw.Pipe(p).Resources()
		out.SRAMAvgPct += u.SRAMAvgPct
		if u.SRAMPeakPct > out.SRAMPeakPct {
			out.SRAMPeakPct = u.SRAMPeakPct
		}
	}
	out.SRAMAvgPct /= float64(pipes)
	return out, nil
}

// wireServer attaches one generator/server pair to the shared switch
// node. Server i lives on pipe i/2; the second server of a pipe uses the
// upper port block. The server's two ingress ports register per-port
// drop hooks, so its failures recycle into its own generator pool.
func wireServer(f *Fabric, swn *SwitchNode, m MultiServer, s Sections, i int, res *Result) error {
	eng := f.Engine()
	windowStart, windowEnd := s.Opts.WarmupNs, s.Opts.WarmupNs+s.Opts.MeasureNs
	pipe := i / 2
	base := rmt.PortID(core.PortsPerPipe*pipe + 8*(i%2))
	split, nfPort, sinkPort := base, base+1, base+2

	macGen := packet.MAC{0x02, 0x10, 0, 0, 0, byte(i)}
	macNF := packet.MAC{0x02, 0x20, 0, 0, 0, byte(i)}
	macSink := packet.MAC{0x02, 0x30, 0, 0, 0, byte(i)}
	swn.SW.AddL2Route(macNF, nfPort)
	swn.SW.AddL2Route(macSink, sinkPort)
	swn.SW.AddL2Route(macGen, sinkPort) // MAC swap returns toward the generator

	var prog *core.Program
	var snap core.Counters // the program's counters at window start
	if s.Parking.Enabled() {
		var err error
		if prog, err = swn.SW.AttachPayloadPark(s.Parking.Core(split, nfPort), -1); err != nil {
			return fmt.Errorf("attach server %d: %w", i+1, err)
		}
		eng.ScheduleAt(windowStart, func() { snap = prog.C })
	}

	srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})})
	gen := trafficgen.New(trafficgen.Config{
		Sizes: s.Traffic.Dist, Flows: s.Traffic.Flows,
		SrcMAC: macGen, DstMAC: macNF,
		DstIP: packet.IPv4Addr{10, 1, byte(i), 9}, DstPort: 80,
		Seed: s.Opts.Seed + int64(i),
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
	returnLink := f.NewLink(name("nf->switch"), m.LinkBps, 500, 1<<20,
		swn.IngressWith(nfPort, onDrop, consumed), onDrop)
	srvSim := NewServerSim(eng, s.Server, srv, s.Opts.Seed+(int64(i)+1)<<40,
		returnLink.Send, onDrop, consumed)
	toNFLink := f.NewLink(name("switch->nf"), m.LinkBps, 500, 1<<20,
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
	sinkLink := f.NewLink(name("switch->sink"), 2*m.LinkBps, 500, 2<<20,
		sink.Receive, onDrop)
	genLink := f.NewLink(name("gen->switch"), 2*m.LinkBps, 500, 4<<20,
		swn.IngressWith(split, onDrop, consumed), onDrop)

	swn.SetOut(nfPort, toNFLink)
	swn.SetOut(sinkPort, sinkLink)

	src := f.AddSource(name("gen"), gen, genLink, s.Traffic.SendBps)
	src.WindowStart, src.WindowEnd = windowStart, windowEnd
	src.StopAt = windowEnd + s.Opts.WarmupNs/2
	src.OnSend = func(p Parcel) {
		sent++
		sentBits.Record(eng.Now(), float64(p.Pkt.Len()*8))
	}
	src.Start(int64(i) * 97) // desynchronize servers slightly

	// Finalize this server's result when the run ends.
	eng.ScheduleAt(windowEnd+s.Opts.WarmupNs-1, func() {
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
		if prog != nil {
			res.parkingSince(&prog.C, &snap)
		}
	})
	return nil
}
