package sim

import (
	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// An edge is the path every number in the paper is taken on (§6.1):
// generator -> switch -> NF server -> switch -> sink. Every topology
// measures its flows through this one type, so a metric name means the
// same thing whichever runner produced it.

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

// edgeSpec describes one edge: the graph's flow — ports, node and cable
// names as reports and metrics print them — plus what only a clocked
// backend adds. src hosts the generator and the sink, nf the NF server:
// the same switch on a single-switch topology, the ingress and egress leaf
// on a fabric.
type edgeSpec struct {
	flow    *Flow
	src, nf edgeSide
	wires

	source     trafficgen.Source
	startAt    int64 // first departure (runners stagger their sources)
	serverSeed int64
	sec        Sections // resolved: offered load, server model, window

	// prog, when non-nil, is the parking program on src.node whose
	// in-window counter deltas the edge reports; onDeliver, when non-nil,
	// sees the time of every delivery to the NF server.
	prog      *core.Program
	onDeliver func(now int64)
}

// edge is one built edge: what the run writes and measure reads.
type edge struct {
	edgeSpec
	sink   *SinkNode
	server *ServerSim

	sentBits, goodput, toNF *stats.RateMeter
	sent                    uint64        // in-window departures
	nfConsumed              uint64        // in-window packets the chain dropped on purpose
	snap                    core.Counters // prog's counters at window start
}

// newEdge cables one edge into f and starts its source.
//
// Links are created in the order FabricResult.Links has always reported
// them per flow — gen, sink, NF return, to-NF — because LinkReports is in
// wiring order. The generator and sink cables run at twice the NF line
// rate: the overload points of Fig. 7 offer more than the NF link carries,
// and the bottleneck under test is that link and the switch queue feeding
// it, not the generator's own cable.
func newEdge(f *Fabric, spec edgeSpec) *edge {
	start, end := spec.sec.Opts.window()
	e := &edge{
		edgeSpec: spec,
		sentBits: stats.NewRateMeter(start),
		goodput:  stats.NewRateMeter(start),
		toNF:     stats.NewRateMeter(start),
	}
	src, srv := &e.src, &e.nf
	eng := f.eng

	fl := e.flow

	genLink := f.NewLink(fl.Gen.ToSwitch, 2*e.linkBps, simPropNs, 4<<20,
		src.node.Ingress(fl.Gen.At.Port, src.drop, src.consume), src.drop)
	e.sink = f.AddSink(fl.Sink.Name, end, src.recycle)
	src.node.SetOut(fl.Sink.At.Port, f.NewLink(fl.Sink.FromSwitch, 2*e.linkBps, simPropNs, 2*simQueueBytes,
		e.sink.Receive, src.drop))

	returnLink := f.NewLink(fl.NF.ToSwitch, e.linkBps, simPropNs, simQueueBytes,
		srv.node.Ingress(fl.NF.At.Port, srv.drop, srv.consume), srv.drop)
	returnLink.LossRate = e.lossRate
	e.server = NewServerSim(eng, e.sec.Server, nf.NewServer(e.sec.serverConfig(fl)), e.serverSeed,
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
	toNFLink := f.NewLink(fl.NF.FromSwitch, e.linkBps, simPropNs, simQueueBytes,
		func(p Parcel) {
			now := eng.Now()
			if p.InWindow && now <= end {
				e.goodput.Record(now, packet.HeaderUnitLen*8)
				e.toNF.Record(now, float64(WireBytes(p.Pkt)*8))
			}
			if e.onDeliver != nil {
				e.onDeliver(now)
			}
			e.server.Receive(p)
		}, srv.drop)
	toNFLink.LossRate = e.lossRate
	srv.node.SetOut(fl.NF.At.Port, toNFLink)

	// Offered load is constant bit rate over frame bits, counted as it
	// leaves the generator; the source runs half a warmup past the window
	// so the window's tail is measured under steady load.
	gen := f.AddSource(fl.Gen.Name, e.source, genLink, e.sec.Traffic.SendBps)
	gen.WindowStart, gen.WindowEnd = start, end
	gen.StopAt = end + e.sec.Opts.WarmupNs/2
	gen.OnSend = func(p Parcel) {
		e.sent++
		e.sentBits.Record(eng.Now(), float64(p.Pkt.Len()*8))
	}
	gen.Start(e.startAt)

	if e.prog != nil {
		eng.ScheduleAt(start, func() { e.snap = e.prog.C })
	}
	return e
}

// measure closes the window and returns what every topology reports per
// edge (Name and the single-switch extras are the caller's).
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
		MaxLatencyUs: e.sink.Latency.Max(),
		JitterUs:     e.sink.Latency.Max() - e.sink.Latency.Mean(),
		Delivered:    e.sink.Delivered,
		NFDrops:      e.nfConsumed,
		PerCore:      e.server.CoreStats(),
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
