package sim

import (
	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// An edge is the path every number in the paper is taken on (§6.1):
// generator -> switch -> NF server -> switch -> sink. Run measures every
// flow of every graph through this one type, so a metric name means the
// same thing whichever topology built the graph.

// edgeSide is one end of an edge: the switch its cables plug into and the
// fate of the packets that end there.
type edgeSide struct {
	node *SwitchNode
	// recycle returns a retired packet to its generator's pool.
	recycle func(*packet.Packet)

	drops uint64 // in-window unintended drops on this side
}

// drop retires a packet lost on this side: queue, ring or stage overflow,
// link loss, premature eviction, bad tag, unknown MAC.
func (s *edgeSide) drop(p Parcel, _ string) {
	if p.InWindow {
		s.drops++
	}
	s.recycle(p.Pkt)
}

// consume retires a packet the switch dropped on purpose (an
// explicit-drop notification, §6.2.4).
func (s *edgeSide) consume(p Parcel) { s.recycle(p.Pkt) }

// edge is one flow of a run: the graph's flow — ports, node and cable
// names as reports and metrics print them, its start and its server's
// seed — built on the fabric, and what the run writes and measure reads.
// src hosts the generator and the sink, nf the NF server: the same switch
// on a single-switch topology, the ingress and egress leaf on a fabric.
type edge struct {
	flow    *Flow
	src, nf edgeSide
	sec     Sections // resolved: offered load, server model, window
	// prog, when non-nil, is the parking program on src.node whose
	// in-window counter deltas the edge reports.
	prog   *core.Program
	sink   *SinkNode
	server *ServerSim

	sentBits, goodput, toNF *stats.RateMeter
	pcie                    *stats.RateMeter // nil unless the graph samples PCIe
	sent                    uint64           // in-window departures
	nfConsumed              uint64           // in-window packets the chain dropped on purpose
	snap                    core.Counters    // prog's counters at window start
	phaseDelivered          []uint64         // NF deliveries split at Graph.Phases
}

// newEdge cables flow fl of g into f and starts its source.
//
// Links are created in the order FabricResult.Links has always reported
// them per flow — gen, sink, NF return, to-NF — because LinkReports is in
// wiring order. The generator and sink cables run at twice the graph's
// line rate: the overload points of Fig. 7 offer more than the NF link
// carries, and the bottleneck under test is that link and the switch queue
// feeding it, not the generator's own cable. Only a graph that asks for it
// samples PCIe, because the sampler schedules events of its own.
func newEdge(f *Fabric, g *Graph, fl *Flow, sec Sections, source trafficgen.Source, recycle func(*packet.Packet), prog *core.Program) *edge {
	start, end := sec.Opts.window()
	e := &edge{
		flow:           fl,
		src:            edgeSide{node: f.switches[fl.Gen.At.Switch], recycle: recycle},
		nf:             edgeSide{node: f.switches[fl.NF.At.Switch], recycle: recycle},
		sec:            sec,
		prog:           prog,
		sentBits:       stats.NewRateMeter(start),
		goodput:        stats.NewRateMeter(start),
		toNF:           stats.NewRateMeter(start),
		phaseDelivered: make([]uint64, len(g.Phases)+1),
	}
	src, srv := &e.src, &e.nf
	eng := f.eng

	genLink := f.NewLink(fl.Gen.ToSwitch, 2*g.LinkBps, simPropNs, 4<<20,
		src.node.Ingress(fl.Gen.At.Port, src.drop, src.consume), src.drop)
	e.sink = f.AddSink(fl.Sink.Name, end, src.recycle)
	src.node.SetOut(fl.Sink.At.Port, f.NewLink(fl.Sink.FromSwitch, 2*g.LinkBps, simPropNs, 2*simQueueBytes,
		e.sink.Receive, src.drop))

	returnLink := f.NewLink(fl.NF.ToSwitch, g.LinkBps, simPropNs, simQueueBytes,
		srv.node.Ingress(fl.NF.At.Port, srv.drop, srv.consume), srv.drop)
	returnLink.LossRate = g.NFLossRate
	e.server = NewServerSim(eng, sec.Server, nf.NewServer(sec.ServerConfig(fl)), fl.ServerSeed,
		returnLink.Send, srv.drop, func(p Parcel) {
			if p.InWindow {
				e.nfConsumed++
			}
			srv.recycle(p.Pkt)
		})

	// Goodput is taken on delivery over the switch->NF link: the useful-
	// header bits (42 B per packet) that reached the NF server, whatever
	// the link carried around them and including packets the firewall
	// goes on to drop — §6.2.4 plots goodput against the firewall's drop
	// rate, so a verdict must not erase the delivery it judged. InWindow
	// already says the packet was born after the window opened.
	toNFLink := f.NewLink(fl.NF.FromSwitch, g.LinkBps, simPropNs, simQueueBytes,
		func(p Parcel) {
			now := eng.Now()
			if p.InWindow && now <= end {
				e.goodput.Record(now, packet.HeaderUnitLen*8)
				e.toNF.Record(now, float64(WireBytes(p.Pkt)*8))
			}
			k := 0
			for k < len(g.Phases) && now >= g.Phases[k] {
				k++
			}
			e.phaseDelivered[k]++
			e.server.Receive(p)
		}, srv.drop)
	toNFLink.LossRate = g.NFLossRate
	srv.node.SetOut(fl.NF.At.Port, toNFLink)

	// Offered load is constant bit rate over frame bits, counted as it
	// leaves the generator; the source runs half a warmup past the window
	// so the window's tail is measured under steady load.
	gen := f.AddSource(fl.Gen.Name, source, genLink, sec.Traffic.SendBps)
	gen.WindowStart, gen.WindowEnd = start, end
	gen.StopAt = end + sec.Opts.WarmupNs/2
	gen.OnSend = func(p Parcel) {
		e.sent++
		e.sentBits.Record(eng.Now(), float64(p.Pkt.Len()*8))
	}
	gen.Start(fl.StartNs)

	if e.prog != nil {
		eng.ScheduleAt(start, func() { e.snap = e.prog.C })
	}
	if g.SamplePCIe {
		e.samplePCIe(eng)
	}
	return e
}

// samplePCIe meters the NF server's PCIe traffic: it samples the server's
// cumulative DMA byte counter every millisecond of the window, like PCM.
func (e *edge) samplePCIe(eng *Engine) {
	start, end := e.sec.Opts.window()
	e.pcie = stats.NewRateMeter(start)
	var base uint64
	var sample func()
	sample = func() {
		now := eng.Now()
		if now >= start && now <= end {
			total := e.server.PCIeBytes.Value()
			delta := total - base
			base = total
			if now > start {
				e.pcie.Record(now, float64(delta*8))
			}
		}
		if now < end {
			eng.Schedule(1e6, sample)
		}
	}
	eng.ScheduleAt(start, func() { base = e.server.PCIeBytes.Value(); sample() })
}

// latencyCDFQuantiles are the quantiles reported in Result.LatencyCDF.
var latencyCDFQuantiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// measure closes the window and returns what the edge measured (Name is
// the caller's).
func (e *edge) measure() Result {
	_, end := e.sec.Opts.window()
	e.sentBits.CloseAt(end)
	e.goodput.CloseAt(end)
	e.toNF.CloseAt(end)
	r := Result{
		SendGbps:     e.sentBits.Gbps(),
		GoodputGbps:  e.goodput.Gbps(),
		ToNFGbps:     e.toNF.Gbps(),
		ToNFMpps:     e.toNF.Mpps(),
		AvgLatencyUs: e.sink.Latency.Mean(),
		P99LatencyUs: e.sink.Hist.Quantile(0.99),
		MaxLatencyUs: e.sink.Latency.Max(),
		JitterUs:     e.sink.Latency.Max() - e.sink.Latency.Mean(),
		Delivered:    e.sink.Delivered,
		NFDrops:      e.nfConsumed,
		PerCore:      e.server.CoreStats(),
	}
	if e.sink.Hist.Count() > 0 {
		r.LatencyCDF = make([]CDFPoint, len(latencyCDFQuantiles))
		for i, q := range latencyCDFQuantiles {
			r.LatencyCDF[i] = CDFPoint{Q: q, LatencyUs: e.sink.Hist.Quantile(q)}
		}
	}
	if e.pcie != nil {
		e.pcie.CloseAt(end)
		r.PCIeGbps = e.pcie.Gbps()
		r.PCIeUtilPct = 100 * e.pcie.Gbps() * 1e9 / e.sec.Server.PCIeBps
	}
	if e.sent > 0 {
		r.UnintendedDropRate = float64(e.src.drops+e.nf.drops) / float64(e.sent)
	}
	r.Healthy = r.UnintendedDropRate < HealthyDropRate
	if e.prog != nil {
		now, snap := &e.prog.C, &e.snap
		r.Splits = now.Splits.Value() - snap.Splits.Value()
		r.Merges = now.Merges.Value() - snap.Merges.Value()
		r.Evictions = now.Evictions.Value() - snap.Evictions.Value()
		r.Premature = now.PrematureEvictions.Value() - snap.PrematureEvictions.Value()
		r.OccupiedSkips = now.OccupiedSkips.Value() - snap.OccupiedSkips.Value()
		r.SmallSkips = now.SmallPayloadSkips.Value() - snap.SmallPayloadSkips.Value()
		r.ExplicitDrops = now.ExplicitDrops.Value() - snap.ExplicitDrops.Value()
	}
	return r
}
