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
	SendGbps           float64        `json:"send_gbps"`
	GoodputGbps        float64        `json:"goodput_gbps"`
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

// bindings builds the observability the spec asks for, as the runners'
// wiring carries it.
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
// topology's runner as they are; the runner's package resolves their
// defaults and validates them — every rule, "unsupported here" included
// (see sim.Sections) — so nothing here restates a field or a rule.
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
	if rep.Mode == "" {
		rep.Mode = s.Parking.Mode.String()
	}
	if p := s.Opts.Progress; p != nil {
		p(s.Name)
	}
	// Collect a large world now: the pacer would keep it until the heap doubled
	// its last mid-run mark, so the next run's peak would depend on where that
	// mark fell. A 16x8 fabric allocates ~70 MB; Fig. 7's ~7 MB is left alone.
	if metrics.Read(alloc); alloc[0].Value.Uint64()-before >= 32<<20 {
		runtime.GC()
	}
	return rep, nil
}

// cancelFunc adapts a context to the sim runners' Cancel hook
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

// --- Testbed ---

func (t Testbed) run(_ context.Context, s *Scenario, w sim.Wiring) (*Report, error) {
	res, err := sim.RunTestbed(sim.Testbed(t), s.sections(), w)
	if err != nil {
		return nil, errf("testbed: %w", err)
	}
	rep := &Report{
		SendGbps:           res.SendGbps,
		GoodputGbps:        res.GoodputGbps,
		AvgLatencyUs:       res.AvgLatencyUs,
		MaxLatencyUs:       res.MaxLatencyUs,
		LatencyCDF:         res.LatencyCDF,
		Delivered:          res.Delivered,
		UnintendedDropRate: res.UnintendedDropRate,
		Healthy:            res.Healthy,
		Premature:          res.Premature,
		Control:            res.Control,
		Programs:           res.Programs,
		Testbed:            &res,
	}
	return rep, nil
}

// --- MultiServer ---

func (m MultiServer) run(_ context.Context, s *Scenario, w sim.Wiring) (*Report, error) {
	res, err := sim.RunMultiServer(sim.MultiServer(m), s.sections(), w)
	if err != nil {
		return nil, errf("multiserver: %w", err)
	}
	rep := &Report{MultiServer: &res}
	for i := range res.PerServer {
		r := &res.PerServer[i]
		rep.SendGbps += r.SendGbps
		rep.GoodputGbps += r.GoodputGbps
		rep.AvgLatencyUs += r.AvgLatencyUs
		if r.MaxLatencyUs > rep.MaxLatencyUs {
			rep.MaxLatencyUs = r.MaxLatencyUs
		}
		rep.Delivered += r.Delivered
		rep.UnintendedDropRate += r.UnintendedDropRate
		rep.Premature += r.Premature
	}
	if n := len(res.PerServer); n > 0 {
		rep.AvgLatencyUs /= float64(n)
		rep.UnintendedDropRate /= float64(n)
	}
	rep.Healthy = rep.UnintendedDropRate < sim.HealthyDropRate
	return rep, nil
}

// --- LeafSpine ---

func (l LeafSpine) run(_ context.Context, s *Scenario, w sim.Wiring) (*Report, error) {
	res, err := sim.RunLeafSpine(sim.LeafSpine(l), s.sections(), w)
	if err != nil {
		return nil, errf("leafspine: %w", err)
	}
	rep := &Report{
		Mode:               res.Mode,
		SendGbps:           res.SendGbps,
		GoodputGbps:        res.GoodputGbps,
		AvgLatencyUs:       res.AvgLatencyUs,
		UnintendedDropRate: res.UnintendedDropRate,
		Healthy:            res.Healthy,
		Control:            res.Control,
		Programs:           res.Programs,
		Fabric:             &res,
	}
	for _, fr := range res.Flows {
		rep.Delivered += fr.Delivered
		if fr.MaxLatencyUs > rep.MaxLatencyUs {
			rep.MaxLatencyUs = fr.MaxLatencyUs
		}
	}
	for _, sw := range res.Switches {
		rep.Premature += sw.Premature
	}
	return rep, nil
}
