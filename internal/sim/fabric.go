package sim

import (
	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Fabric is the discrete-event realisation of a Graph (graph.go):
// simulation nodes — switches, NF servers, traffic sources and sinks —
// connected by unidirectional Links. Run (run.go) builds it from any
// graph: each graph switch loaded by Graph.Realise, two links per graph
// cable, one edge (edge.go) per flow.
//
// A Fabric shares one single-threaded discrete-event Engine; all nodes
// schedule onto the same clock, so runs stay deterministic regardless of
// topology size.
type Fabric struct {
	eng      *Engine
	switches []*SwitchNode
	links    []*Link
	sources  []*SourceNode
	sinks    []*SinkNode

	// obs holds the run's observability bindings (zero when disabled); see
	// EnableObs in observe.go.
	obs ObsConfig
}

// NewFabric returns an empty fabric at time zero.
func NewFabric() *Fabric {
	return &Fabric{eng: NewEngine()}
}

// Run executes the fabric until the clock passes until.
func (f *Fabric) Run(until int64) { f.eng.Run(until) }

// AddSwitch adds a switch node with an empty dataplane. Attach programs
// and routes through node.SW; cable its egress ports with SetOut.
func (f *Fabric) AddSwitch(name string) *SwitchNode {
	n := &SwitchNode{eng: f.eng, Name: name, SW: core.NewSwitch(name)}
	n.buf = make([]byte, 0, maxWireFrame)
	f.switches = append(f.switches, n)
	return n
}

// NewLink builds a registered link delivering to the given handler.
// Registration is what makes the link show up in per-hop reports; the
// link itself behaves exactly like the package-level NewLink's.
func (f *Fabric) NewLink(name string, bps float64, propNs int64, capBytes int, deliver func(Parcel), onDrop func(Parcel, string)) *Link {
	l := NewLink(f.eng, bps, propNs, capBytes, deliver, onDrop)
	l.Name = name
	f.links = append(f.links, l)
	return l
}

// AddSource registers a paced traffic source. Configure its fields, then
// Start it.
func (f *Fabric) AddSource(name string, gen trafficgen.Source, out *Link, sendBps float64) *SourceNode {
	s := &SourceNode{eng: f.eng, Name: name, Gen: gen, Out: out, SendBps: sendBps}
	s.sendFn = s.sendNext
	f.sources = append(f.sources, s)
	return s
}

// AddSink registers a terminal sink recording delivery latency.
func (f *Fabric) AddSink(name string, windowEnd int64, recycle func(*packet.Packet)) *SinkNode {
	s := &SinkNode{eng: f.eng, Name: name, WindowEnd: windowEnd, Recycle: recycle,
		Hist: stats.NewHistogram(stats.ExponentialBounds(1, 1.122, 120))} // 1 µs .. ~1 s
	f.sinks = append(f.sinks, s)
	return s
}

// LinkStats is one link's per-hop report.
type LinkStats struct {
	Name      string `json:"name"`
	TxPackets uint64 `json:"tx_packets"`
	TxBits    uint64 `json:"tx_bits"`
	Drops     uint64 `json:"drops"`
	Lost      uint64 `json:"lost"`
	// UtilPct is the fraction of the reported window the link spent
	// transmitting, as a percentage of line rate.
	UtilPct float64 `json:"util_pct"`
}

// LinkReports returns per-hop link statistics in wiring order, with
// utilization computed over elapsedNs (pass the measurement window, or
// Engine().Now() for the whole run).
func (f *Fabric) LinkReports(elapsedNs int64) []LinkStats {
	out := make([]LinkStats, 0, len(f.links))
	for _, l := range f.links {
		out = append(out, LinkStats{
			Name:      l.Name,
			TxPackets: l.Tx.Value(),
			TxBits:    l.TxBits.Value(),
			Drops:     l.Drops.Value(),
			Lost:      l.Lost.Value(),
			UtilPct:   100 * l.Utilization(elapsedNs),
		})
	}
	return out
}

// SwitchStats is one switch node's per-hop report: forwarding counters
// plus the PayloadPark counters summed over its installed programs.
type SwitchStats struct {
	Name  string `json:"name"`
	Rx    uint64 `json:"rx"`
	Tx    uint64 `json:"tx"`
	Drops uint64 `json:"drops"`
	// Program counters (zero on pure L2 switches).
	Splits        uint64 `json:"splits"`
	Merges        uint64 `json:"merges"`
	Evictions     uint64 `json:"evictions"`
	Premature     uint64 `json:"premature"`
	OccupiedSkips uint64 `json:"occupied_skips"`
	SmallSkips    uint64 `json:"small_skips"`
	// Occupancy is the number of parked payloads still held at report
	// time (orphan detection in failure scenarios).
	Occupancy int `json:"occupancy"`
	// SRAMAvgPct is the average per-stage SRAM utilization of pipe 0.
	SRAMAvgPct float64 `json:"sram_avg_pct"`
}

// SwitchReports returns per-switch statistics in creation order.
func (f *Fabric) SwitchReports() []SwitchStats {
	out := make([]SwitchStats, 0, len(f.switches))
	for _, n := range f.switches {
		pc := n.SW.ParkCounters()
		st := SwitchStats{
			Name: n.Name, Rx: n.SW.RxPackets(), Tx: n.SW.TxPackets(), Drops: n.SW.TotalDrops(),
			Splits: pc.Splits.Value(), Merges: pc.Merges.Value(), Evictions: pc.Evictions.Value(),
			Premature: pc.PrematureEvictions.Value(), OccupiedSkips: pc.OccupiedSkips.Value(), SmallSkips: pc.SmallPayloadSkips.Value(),
		}
		if progs := n.SW.Programs(); len(progs) > 0 {
			st.SRAMAvgPct = n.SW.Pipe(0).Resources().SRAMAvgPct
			for _, prog := range progs {
				st.Occupancy += prog.Occupancy()
			}
		}
		out = append(out, st)
	}
	return out
}

// maxWireFrame sizes the per-switch serialization scratch of wire-parse
// hops (headers + 1500 B payload + cascaded PayloadPark headers).
const maxWireFrame = 2048

// portHooks is the per-ingress-port drop handling of a switch node: each
// edge charges the drops of packets entering on its ports to its own
// counters and packet pool, whoever else shares the switch, and a fabric
// cable's far end charges the run's fabric-wide count.
type portHooks struct {
	onDrop     func(Parcel, string)
	onConsumed func(Parcel)
}

// SwitchNode wraps one core.Switch into the fabric: per-port cables,
// static routes (the switch's own L2 table), per-ingress-port drop
// handling, and optional byte-level re-parsing between cascaded
// programmable switches.
type SwitchNode struct {
	eng  *Engine
	Name string
	// SW is the behavioural dataplane. Graph.Realise loads its routes and
	// programs; the Program section's instances stay with the run.
	SW *core.Switch
	// WireParse makes ingress byte-accurate: arriving packets are
	// serialized and re-parsed with this switch's per-port header
	// geometry, exactly as frames cross real inter-switch cables. This is
	// what lets cascaded PayloadPark programs treat an upstream program's
	// header as opaque payload (§7 striping); single-switch topologies
	// leave it off and pass parsed packets straight through, the fast
	// path the presets rely on. Re-parsing reuses the packet and the
	// serialization scratch per switch, so steady state allocates nothing.
	WireParse bool

	out      [core.NumPorts]*Link
	hooks    [core.NumPorts]portHooks
	ingress  [core.NumPorts]func(Parcel)
	routeFns [core.NumPorts]func(Parcel)

	// one is the batch of one every arrival is injected through; buf is
	// reparse's serialization scratch.
	one batchOfOne
	buf []byte

	// Flight-recorder state (nil/zero unless the fabric's EnableObs ran
	// with a trace): the trace's recorder, this node's interned
	// track id, and the per-node drop-reason intern cache.
	rec       *obs.Recorder
	trace     *obs.Trace
	trk       uint16
	dropNames map[string]uint16
}

// SetOut cables egress port to a link. Emissions routed to an uncabled
// port are dropped with reason "no route".
func (n *SwitchNode) SetOut(port rmt.PortID, l *Link) { n.out[port] = l }

// Ingress returns the delivery handler for packets arriving on port.
// Packets that entered there and die in the switch go to onDrop
// (unintended: unknown MAC, premature eviction, bad tag, no route) or
// onConsumed (an intended explicit-drop notification). The handler is
// built once per port; links deliver through it without per-packet
// allocation.
func (n *SwitchNode) Ingress(port rmt.PortID, onDrop func(Parcel, string), onConsumed func(Parcel)) func(Parcel) {
	n.hooks[port] = portHooks{onDrop: onDrop, onConsumed: onConsumed}
	if h := n.ingress[port]; h != nil {
		return h
	}
	h := func(p Parcel) { n.handle(p, port) }
	n.ingress[port] = h
	n.routeFns[port] = func(p Parcel) { n.route(p, port) }
	return h
}

// handle runs one arriving packet through the switch and schedules its
// emission after the traversal latency. With the flight recorder on
// (n.rec set) the injection is tracedInject's, which records what the
// dataplane did; a run without one pays only the predictable nil checks.
func (n *SwitchNode) handle(p Parcel, in rmt.PortID) {
	if n.WireParse && !n.reparse(&p, in) {
		if n.rec != nil {
			n.emit(obs.KindDrop, "wire parse error", p.Born, 0)
		}
		n.hooks[in].onDrop(p, "wire parse error")
		return
	}
	var r *core.BatchResult
	if n.rec != nil {
		r = n.tracedInject(p, in)
	} else {
		r = n.one.inject(n.SW, p.Pkt, in)
	}
	if !r.OK {
		if r.Reason != core.DropExplicitDrop {
			n.hooks[in].onDrop(p, r.Reason)
		} else {
			n.hooks[in].onConsumed(p)
		}
		return
	}
	p.Pkt = r.Em.Pkt
	p.egress = r.Em.Port
	n.eng.ScheduleParcel(r.Em.LatencyNs, n.routeFns[in], p)
}

// batchOfOne is the scalar case of core.Switch.InjectBatch: owner-held
// scratch for injecting one packet at a time without allocating.
type batchOfOne struct {
	bp  [1]core.BatchPacket
	res [1]core.BatchResult
}

// inject runs pkt through sw; the result is valid until the next call.
func (b *batchOfOne) inject(sw *core.Switch, pkt *packet.Packet, in rmt.PortID) *core.BatchResult {
	b.bp[0] = core.BatchPacket{Pkt: pkt, In: in}
	sw.InjectBatch(b.bp[:], b.res[:])
	return &b.res[0]
}

// route forwards an emission onto the cable of its egress port. in is the
// ingress port the packet arrived on, which owns the drop handling.
func (n *SwitchNode) route(p Parcel, in rmt.PortID) {
	if int(p.egress) >= len(n.out) || n.out[p.egress] == nil {
		n.hooks[in].onDrop(p, "no route")
		return
	}
	n.out[p.egress].Send(p)
}

// reparse crosses the wire boundary: the parcel's packet is serialized
// into the node's scratch and re-parsed in place with this switch's
// per-port header geometry, so a downstream program sees exactly the bytes
// an upstream one emitted (its PayloadPark header becomes opaque payload),
// with room for any park region here in front, so merges reassemble in
// the packet's own buffer — steady state allocates nothing.
func (n *SwitchNode) reparse(p *Parcel, in rmt.PortID) bool {
	n.buf = p.Pkt.AppendSerialize(n.buf[:0])
	return p.Pkt.ParseWithHeadroom(n.buf, n.SW.PPOffset(in), n.SW.MaxParkBytes()) == nil
}

// SourceNode paces a traffic source at a constant bit rate over frame
// bits, marking parcels born inside [WindowStart, WindowEnd) as
// in-window and stopping once the next departure would pass StopAt.
type SourceNode struct {
	eng  *Engine
	Name string
	Gen  trafficgen.Source
	Out  *Link
	// SendBps is the offered load in frame bits/second.
	SendBps float64
	// WindowStart/WindowEnd bound the measurement window for in-window
	// marking; StopAt is the generation horizon.
	WindowStart, WindowEnd, StopAt int64
	// OnSend, when set, observes every in-window departure (offered-load
	// accounting).
	OnSend func(Parcel)

	sendFn func()
	rec    *obs.Recorder
	trk    uint16
}

// Start schedules the first departure at absolute time at.
func (s *SourceNode) Start(at int64) { s.eng.ScheduleAt(at, s.sendFn) }

func (s *SourceNode) sendNext() {
	pkt := s.Gen.Next()
	now := s.eng.Now()
	p := Parcel{Pkt: pkt, Born: now, InWindow: now >= s.WindowStart && now < s.WindowEnd}
	if p.InWindow && s.OnSend != nil {
		s.OnSend(p)
	}
	if s.rec != nil {
		s.rec.Emit(obs.Event{At: now, Track: s.trk, Kind: obs.KindInject, ID: p.Born, Arg: int64(pkt.Len())})
	}
	s.Out.Send(p)
	gapNs := int64(float64(pkt.Len()*8) / s.SendBps * 1e9)
	if gapNs < 1 {
		gapNs = 1
	}
	if now+gapNs < s.StopAt {
		s.eng.Schedule(gapNs, s.sendFn)
	}
}

// SinkNode terminates a path: in-window deliveries before WindowEnd are
// counted and their end-to-end latency observed, and every packet is
// recycled to its source pool.
type SinkNode struct {
	eng  *Engine
	Name string
	// WindowEnd caps measurement; late arrivals still recycle.
	WindowEnd int64
	// Recycle returns retired packets to their generator.
	Recycle func(*packet.Packet)
	// Hist holds the same latencies for quantiles.
	Hist *stats.Histogram

	Delivered uint64
	Latency   stats.Summary

	rec *obs.Recorder
	trk uint16
}

// Receive is the link-delivery handler.
func (s *SinkNode) Receive(p Parcel) {
	if s.rec != nil {
		s.rec.Emit(obs.Event{At: s.eng.Now(), Track: s.trk, Kind: obs.KindSink, ID: p.Born, Arg: s.eng.Now() - p.Born})
	}
	if p.InWindow && s.eng.Now() <= s.WindowEnd {
		s.Delivered++
		us := float64(s.eng.Now()-p.Born) / 1e3
		s.Latency.Observe(us)
		s.Hist.Observe(us)
	}
	s.Recycle(p.Pkt)
}
