package scenario

import (
	"context"

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
	// adaptive eviction, or the fabric ECMP/adaptive controller).
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

// obsSetup carries one run's observability plumbing: the registry and
// trace built from the Observe spec, handed to the runner as wiring and
// folded into the Report after.
type obsSetup struct {
	reg   *obs.Registry
	trace *obs.Trace
}

func newObsSetup(o Observe) obsSetup {
	var ob obsSetup
	if o.Metrics {
		ob.reg = obs.NewRegistry()
	}
	if o.Trace {
		cap := o.TraceEventCap
		if cap <= 0 {
			cap = obs.DefaultEventCap
		}
		ob.trace = obs.NewTrace(cap)
	}
	return ob
}

// wiring binds a simulated run to its context and observability.
func (ob obsSetup) wiring(ctx context.Context) sim.Wiring {
	return sim.Wiring{Cancel: cancelFunc(ctx), Obs: sim.ObsConfig{Metrics: ob.reg, Trace: ob.trace}}
}

// finish snapshots the registry (after the run, so every counter has
// its final value) and attaches the trace to the report.
func (ob obsSetup) finish(rep *Report) {
	if ob.reg != nil {
		rep.Metrics = ob.reg.Snapshot()
	}
	rep.Trace = ob.trace
}

// Run executes one Scenario and returns its Report. It is the single
// public entrypoint for every topology. The scenario's sections go to the
// topology's runner as they are; the runner's package resolves their
// defaults and validates them (see sim.Sections), so nothing here
// restates a field.
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
	if err := s.Topology.validate(&s); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := s.Topology.run(ctx, &s)
	if err != nil {
		return nil, err
	}
	// A cancellation that struck mid-simulation left a partial timeline;
	// report the cancellation, not the half-measured numbers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Scenario = s.Name
	rep.Topology = s.Topology.Kind()
	if rep.Mode == "" {
		rep.Mode = s.Parking.Mode.String()
	}
	if p := s.Opts.Progress; p != nil {
		p(s.Name)
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

func (t Testbed) validate(s *Scenario) error {
	if s.Control.ECMP {
		return errf("testbed: ECMP needs a multipath topology (use LeafSpine)")
	}
	return nil
}

func (t Testbed) run(ctx context.Context, s *Scenario) (*Report, error) {
	ob := newObsSetup(s.Observe)
	res, err := sim.RunTestbed(sim.Testbed(t), s.sections(), ob.wiring(ctx))
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
	ob.finish(rep)
	return rep, nil
}

// --- MultiServer ---

func (m MultiServer) validate(s *Scenario) error {
	if s.Chain != nil {
		return errf("multiserver: custom Chain unsupported (the §6.2.3 deployment pins the MAC-swap chain)")
	}
	if s.Traffic.Source != nil {
		return errf("multiserver: Traffic.Source unsupported")
	}
	if s.Parking.Recirculate || s.Parking.BoundaryOffset != 0 || s.Parking.ExplicitDrop {
		return errf("multiserver: Recirculate/BoundaryOffset/ExplicitDrop unsupported")
	}
	if s.Parking.Mode == sim.ParkEveryHop {
		return errf("multiserver: ParkEveryHop needs a multi-switch topology")
	}
	if s.Control.Enabled() {
		return errf("multiserver: control plane unsupported (use Testbed or LeafSpine)")
	}
	if s.Program.Enabled() || s.Program.Spec != nil {
		return errf("multiserver: table programs unsupported (use Testbed or LeafSpine)")
	}
	return nil
}

func (m MultiServer) run(ctx context.Context, s *Scenario) (*Report, error) {
	ob := newObsSetup(s.Observe)
	res, err := sim.RunMultiServer(sim.MultiServer(m), s.sections(), ob.wiring(ctx))
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
	ob.finish(rep)
	return rep, nil
}

// --- LeafSpine ---

func (l LeafSpine) validate(s *Scenario) error {
	if s.Chain != nil {
		return errf("leafspine: custom Chain unsupported (fabric NFs pin the MAC-swap chain)")
	}
	if s.Traffic.Source != nil {
		return errf("leafspine: Traffic.Source unsupported")
	}
	if s.Parking.Recirculate || s.Parking.BoundaryOffset != 0 || s.Parking.ExplicitDrop {
		return errf("leafspine: Recirculate/BoundaryOffset/ExplicitDrop unsupported")
	}
	return nil
}

func (l LeafSpine) run(ctx context.Context, s *Scenario) (*Report, error) {
	ob := newObsSetup(s.Observe)
	res, err := sim.RunLeafSpine(sim.LeafSpine(l), s.sections(), ob.wiring(ctx))
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
	ob.finish(rep)
	return rep, nil
}
