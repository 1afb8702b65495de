package scenario

import (
	"context"
	"runtime"
	"runtime/metrics"

	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// Report is the structured outcome of one Run, identical in shape for
// every topology: headline metrics up front, the per-topology detail
// embedded (exactly one of Testbed / MultiServer / Fabric / Live is
// non-nil).
type Report struct {
	// Scenario and Topology identify the run.
	Scenario string `json:"scenario"`
	Topology string `json:"topology"`
	// Mode is the parking mode ("baseline", "edge", "everyhop").
	Mode string `json:"mode"`

	// Headline metrics, common to every topology. Goodput is the paper's
	// header-unit goodput, summed over servers or flows.
	SendGbps    float64 `json:"send_gbps"`
	GoodputGbps float64 `json:"goodput_gbps"`
	// Latency is measured by simulated topologies only: a live run leaves
	// both at 0 until it stamps frames (ROADMAP item 4's RTT histogram).
	AvgLatencyUs       float64        `json:"avg_latency_us"`
	MaxLatencyUs       float64        `json:"max_latency_us"`
	LatencyCDF         []sim.CDFPoint `json:"latency_cdf,omitempty"`
	Delivered          uint64         `json:"delivered"`
	UnintendedDropRate float64        `json:"unintended_drop_rate"`
	Healthy            bool           `json:"healthy"`
	// Premature counts premature evictions across every installed
	// program (the Fig. 14 criterion).
	Premature uint64 `json:"premature"`

	// Control is the control-plane section — tick bookkeeping and the
	// decision timeline — when the scenario ran a controller (testbed
	// adaptive eviction, the fabric ECMP/adaptive controller, or the
	// live fabric's).
	Control *ctrl.Report `json:"control,omitempty"`

	// Programs reports each declaratively loaded table program's
	// in-window counter deltas (empty unless Scenario.Program ran).
	Programs []sim.ProgramCounters `json:"programs,omitempty"`

	// Per-topology details.
	Testbed     *sim.Result            `json:"testbed,omitempty"`
	MultiServer *sim.MultiServerResult `json:"multiserver,omitempty"`
	Fabric      *sim.FabricResult      `json:"fabric,omitempty"`
	Live        *live.Result           `json:"live,omitempty"`

	// Metrics is the observability snapshot, present when
	// Scenario.Observe.Metrics was set.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Trace is the packet-lifecycle flight recording, present when
	// Scenario.Observe.Trace was set. It has no JSON form inside the
	// report; export it with Trace.WriteChrome.
	Trace *obs.Trace `json:"-"`
}

// bindings builds the observability the spec asks for, as a run's wiring
// carries it.
func (o Observe) bindings() sim.ObsConfig {
	var c sim.ObsConfig
	if o.Metrics {
		c.Metrics = obs.NewRegistry()
	}
	if o.Trace {
		c.Trace = obs.NewTrace(obs.DefaultEventCap)
	}
	return c
}

// Run executes one Scenario and returns its Report. It is the single
// public entrypoint for every topology. The scenario's sections go to the
// topology as they are; the topology's package resolves their defaults and
// validates them — every rule, "unsupported here" included (see
// sim.Sections) — so nothing here restates a field or a rule. A simulated
// topology's Report is its headline over the one sim.Outcome plus the
// topology's view of it.
//
// Cancellation is honored mid-simulation: the context's Done channel is
// polled by the event engine every few thousand events, so even a
// multi-second run stops promptly; Run then returns ctx.Err() and
// discards the partial result.
func Run(ctx context.Context, s Scenario) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.Topology == nil {
		return nil, errf("nil Topology (set Testbed, MultiServer, LeafSpine, or Live)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(alloc)
	before := alloc[0].Value.Uint64()
	w := sim.Wiring{Cancel: cancelFunc(ctx), Obs: s.Observe.bindings()}
	rep, err := s.Topology.run(ctx, &s, w)
	if err != nil {
		return nil, err
	}
	// A cancellation that struck mid-simulation left a partial timeline;
	// report the cancellation, not the half-measured numbers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Snapshot after the run, so every counter has its final value.
	if reg := w.Obs.Metrics; reg != nil {
		rep.Metrics = reg.Snapshot()
	}
	rep.Trace = w.Obs.Trace
	rep.Scenario = s.Name
	rep.Topology = s.Topology.Kind()
	rep.Mode = s.Parking.Mode.String()
	// Collect a large world now: the pacer would keep it until the heap doubled
	// its last mid-run mark, so the next run's peak would depend on where that
	// mark fell. A 16x8 fabric allocates ~70 MB; Fig. 7's ~7 MB is left alone.
	if metrics.Read(alloc); alloc[0].Value.Uint64()-before >= 32<<20 {
		runtime.GC()
	}
	return rep, nil
}

// cancelFunc adapts a context to the event engine's Cancel hook
// (sim.Wiring): it returns nil for contexts that can never be canceled
// (no polling cost) and a non-blocking Done poll otherwise.
func cancelFunc(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// simulated is a topology of the event simulator: sim.Testbed,
// sim.MultiServer or sim.LeafSpine, by pointer.
type simulated interface {
	Resolve(*sim.Sections)
	Validate(sim.Sections) error
	Graph(sim.Sections) *sim.Graph
}

// simulate resolves and validates the scenario's sections for t, runs t's
// graph, and returns the Report's headline over the outcome with view
// adding t's own section. The headline sums rates and deliveries over the
// flows, averages their mean latencies and takes the largest maximum; its
// drop rate is fabric-wide over the packets sent, unless meanDropRate asks
// for the mean of the flows' rates (the multi-server deployment's).
func simulate(kind string, t simulated, s *Scenario, w sim.Wiring, meanDropRate bool, view func(sim.Sections, *sim.Outcome, *Report)) (*Report, error) {
	sec := s.sections()
	t.Resolve(&sec)
	err := t.Validate(sec)
	var o *sim.Outcome
	if err == nil {
		o, err = sim.Run(t.Graph(sec), sec, w)
	}
	if err != nil {
		return nil, errf("%s: %w", kind, err)
	}
	rep := &Report{Control: o.Control, Programs: o.Programs}
	for _, f := range o.Flows {
		rep.SendGbps += f.SendGbps
		rep.GoodputGbps += f.GoodputGbps
		rep.AvgLatencyUs += f.AvgLatencyUs
		rep.MaxLatencyUs = max(rep.MaxLatencyUs, f.MaxLatencyUs)
		rep.Delivered += f.Delivered
		rep.UnintendedDropRate += f.UnintendedDropRate
		rep.Premature += f.Premature
	}
	rep.AvgLatencyUs /= float64(len(o.Flows))
	if len(o.Switches) > 1 { // a fabric counts parking per switch (sim.Outcome.Flows)
		for _, sw := range o.Switches {
			rep.Premature += sw.Premature
		}
	}
	if meanDropRate {
		rep.UnintendedDropRate /= float64(len(o.Flows))
	} else if o.Sent > 0 {
		rep.UnintendedDropRate = float64(o.Drops) / float64(o.Sent)
	}
	rep.Healthy = rep.UnintendedDropRate < sim.HealthyDropRate
	view(sec, o, rep)
	return rep, nil
}

func (t Testbed) run(_ context.Context, s *Scenario, w sim.Wiring) (*Report, error) {
	tb := sim.Testbed(t)
	return simulate(t.Kind(), &tb, s, w, false, func(sec sim.Sections, o *sim.Outcome, rep *Report) {
		res := tb.View(sec, o)
		rep.Testbed, rep.LatencyCDF = &res, res.LatencyCDF // the one topology with a headline CDF
	})
}

func (m MultiServer) run(_ context.Context, s *Scenario, w sim.Wiring) (*Report, error) {
	ms := sim.MultiServer(m)
	return simulate(m.Kind(), &ms, s, w, true, func(sec sim.Sections, o *sim.Outcome, rep *Report) {
		res := ms.View(sec, o)
		rep.MultiServer = &res
	})
}

func (l LeafSpine) run(_ context.Context, s *Scenario, w sim.Wiring) (*Report, error) {
	ls := sim.LeafSpine(l)
	return simulate(l.Kind(), &ls, s, w, false, func(sec sim.Sections, o *sim.Outcome, rep *Report) {
		res := ls.View(sec, o)
		rep.Fabric = &res
	})
}
