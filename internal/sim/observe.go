package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// ObsConfig carries one run's observability bindings into the presets:
// a metrics registry, a flight-recorder trace, or both. The zero value
// disables everything and is what every preset defaults to.
type ObsConfig struct {
	Metrics *obs.Registry
	Trace   *obs.Trace
}

// EnableObs arms observability on a fully wired fabric. Call after
// every switch, program, source, sink and link exists and before Run
// (and before attachController, which binds the decision track).
// A zero config is a no-op.
func (f *Fabric) EnableObs(cfg ObsConfig) {
	f.obs = cfg
	if tr := cfg.Trace; tr != nil {
		rec := tr.Recorder()
		for _, n := range f.switches {
			n.rec = rec
			n.trace = tr
			n.trk = tr.Intern(n.Name)
			n.dropNames = make(map[string]uint16)
		}
		for _, s := range f.sources {
			s.rec = rec
			s.trk = tr.Intern(s.Name)
		}
		for _, s := range f.sinks {
			s.rec = rec
			s.trk = tr.Intern(s.Name)
		}
	}
	if cfg.Metrics != nil {
		f.registerMetrics(cfg.Metrics)
	}
}

// registerMetrics publishes the fabric's state into the registry:
// engine progress, per-link and per-switch forwarding counters, every
// program's parking counters and per-entry hits, and the payload buffers
// each traffic generator made. Reads are closures over live state, so
// snapshots must happen after Run returns (the scenario layer guarantees
// this).
func (f *Fabric) registerMetrics(reg *obs.Registry) {
	e := f.eng
	reg.Counter("pp_engine_events_total", "events executed by the engine", e.Executed)
	reg.Gauge("pp_engine_pending_events", "events still queued (wheel + heap occupancy)", func() float64 { return float64(e.Pending()) })
	reg.Counter("pp_engine_cascaded_events_total", "events relinked from the far wheel level into the hot level", func() uint64 { return e.queue.cascaded })
	reg.Counter("pp_engine_heap_events_total", "events pushed onto the overflow heap", func() uint64 { return e.queue.heaped })
	for _, l := range f.links {
		lbl := fmt.Sprintf("{link=%q}", l.Name)
		reg.Counter("pp_link_tx_packets_total"+lbl, "packets transmitted on the link", func() uint64 { return l.Tx.Value() })
		reg.Counter("pp_link_tx_bits_total"+lbl, "bits transmitted on the link", func() uint64 { return l.TxBits.Value() })
		reg.Counter("pp_link_drops_total"+lbl, "packets dropped at the link queue", func() uint64 { return l.Drops.Value() })
	}
	for _, n := range f.switches {
		lbl := fmt.Sprintf("{switch=%q}", n.Name)
		reg.Counter("pp_switch_rx_packets_total"+lbl, "packets received by the switch", func() uint64 { return n.SW.RxPackets() })
		reg.Counter("pp_switch_tx_packets_total"+lbl, "packets emitted by the switch", func() uint64 { return n.SW.TxPackets() })
		reg.Counter("pp_switch_drops_total"+lbl, "packets dropped inside the switch", func() uint64 { return n.SW.TotalDrops() })
		reg.Counter("pp_rmt_match_steps_total"+lbl, "match-program steps evaluated", func() uint64 { steps, _ := n.SW.MatchCounts(); return steps })
		reg.Counter("pp_rmt_residual_conds_total"+lbl, "residual match conditions loaded", func() uint64 { _, r := n.SW.MatchCounts(); return r })
		for i, prog := range n.SW.Programs() {
			plbl := fmt.Sprintf("switch=%q,program=\"%d\"", n.Name, i)
			prog.C.RegisterObs(reg, plbl)
			reg.Gauge(fmt.Sprintf("pp_park_occupancy_slots{%s}", plbl), "payloads currently parked", func() float64 { return float64(prog.Occupancy()) })
			for _, m := range prog.Instance().Tables() {
				for i := range m.Rules {
					reg.Counter(fmt.Sprintf("pp_rmt_entry_hits_total{%s,table=%q,entry=%q}", plbl, m.Name, m.Rules[i].Name),
						"table entry fires", m.Rules[i].Hits)
				}
			}
		}
	}
	for _, s := range f.sources {
		if g, ok := s.Gen.(*trafficgen.Generator); ok {
			reg.Counter(fmt.Sprintf("pp_traffic_payload_buffers_total{source=%q}", s.Name), "payload buffers the traffic source made", g.PayloadBuffers)
		}
	}
	for _, s := range f.sinks {
		lbl := fmt.Sprintf("{sink=%q}", s.Name)
		reg.Counter("pp_sink_delivered_total"+lbl, "in-window deliveries at the sink", func() uint64 { return s.Delivered })
	}
}

// observeController merges the controller into the observability
// layer: decisions land on a dedicated "controller" trace track in
// the same sim-time clock domain as data-plane spans, and the tick/
// decision totals join the metrics registry. Decisions record through
// the trace's recorder.
func (f *Fabric) observeController(c *ctrl.Controller) {
	if f.obs.Metrics != nil {
		c.RegisterMetrics(f.obs.Metrics)
	}
	tr := f.obs.Trace
	if tr == nil {
		return
	}
	rec := tr.Recorder()
	track := tr.Intern("controller")
	c.SetObserver(func(at int64, kind, target string) {
		// Kind and target come from small closed sets; interning is a
		// map hit after each set member's first decision.
		rec.Emit(obs.Event{At: at, Track: track, Kind: obs.KindDecision, Name: tr.Intern(kind), ID: int64(tr.Intern(target))})
	})
}

// dropName interns a drop reason through the per-node cache. Reasons
// are a small closed set (core's Drop* constants), so the map lookup
// is the steady-state cost; the Intern call happens once per reason.
func (n *SwitchNode) dropName(reason string) uint16 {
	id, ok := n.dropNames[reason]
	if !ok {
		id = n.trace.Intern(reason)
		n.dropNames[reason] = id
	}
	return id
}

// emit records one event on this switch's track at the engine's clock,
// named by its drop reason when it has one.
//
//go:noinline
func (n *SwitchNode) emit(kind obs.EventKind, reason string, id, arg int64) {
	var name uint16
	if reason != "" {
		name = n.dropName(reason)
	}
	n.rec.Emit(obs.Event{At: n.eng.Now(), Track: n.trk, Kind: kind, Name: name, ID: id, Arg: arg})
}

// tracedInject is handle's injection with the flight recorder armed: it
// records the parks, merges and evictions the injection made (the growth of
// the switch's park counters), then its drop or consumption. Out of line,
// like emit, so handle's untraced path reads no counters and holds no record.
//
//go:noinline
func (n *SwitchNode) tracedInject(p Parcel, in rmt.PortID) *core.BatchResult {
	pre := n.SW.ParkCounters()
	r := n.one.inject(n.SW, p.Pkt, in)
	post := n.SW.ParkCounters()
	if d := post.Splits - pre.Splits; d > 0 {
		n.emit(obs.KindPark, "", p.Born, int64(d))
	}
	if d := post.Merges - pre.Merges; d > 0 {
		n.emit(obs.KindMerge, "", p.Born, int64(d))
	}
	if d := post.Evictions - pre.Evictions; d > 0 {
		n.emit(obs.KindEvict, "", p.Born, int64(d))
	}
	if !r.OK && r.Reason == core.DropExplicitDrop {
		n.emit(obs.KindConsume, "", p.Born, 0)
	} else if !r.OK {
		n.emit(obs.KindDrop, r.Reason, p.Born, 0)
	}
	return r
}
