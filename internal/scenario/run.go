package scenario

import (
	"context"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Report is the structured outcome of one Run, identical in shape for
// every topology: headline metrics up front, the per-topology detail
// embedded (exactly one of Testbed / MultiServer / Fabric is non-nil;
// Custom topologies fill whichever fits, or none).
type Report struct {
	// Scenario and Topology identify the run.
	Scenario string `json:"scenario"`
	Topology string `json:"topology"`
	// Mode is the parking mode ("baseline", "edge", "everyhop").
	Mode string `json:"mode"`

	// Headline metrics, common to every topology. Goodput is the paper's
	// header-unit goodput where the topology measures it (testbed,
	// leaf-spine); multi-server reports summed delivered link bits (see
	// sim.Result.GoodputGbps for the metric fork).
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
// trace built from the Observe spec, handed to the sim config before
// the run and folded into the Report after.
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

func (ob obsSetup) simCfg() sim.ObsConfig {
	return sim.ObsConfig{Metrics: ob.reg, Trace: ob.trace}
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
// public entrypoint for every topology; the legacy Simulate* functions
// are thin deprecated wrappers over the same internals.
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
		return nil, errf("nil Topology (set Testbed, MultiServer, LeafSpine, or Custom)")
	}
	if s.Opts.Partitions < 0 {
		return nil, errf("Opts.Partitions = %d (want >= 0)", s.Opts.Partitions)
	}
	s.Parking.fillDefaults()
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
	if rep == nil {
		// Only a Custom hook can produce (nil, nil); fail descriptively
		// instead of dereferencing it below.
		return nil, errf("topology %q returned a nil Report without an error", s.Topology.Kind())
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

// CancelFunc adapts a context to the sim configs' Cancel hook: it
// returns nil for contexts that can never be canceled (no polling cost)
// and a non-blocking Done poll otherwise. Custom topologies should pass
// it to their sim config so mid-simulation cancellation works for them
// too.
func CancelFunc(ctx context.Context) func() bool {
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
	if s.Control.Adaptive && !s.Parking.Enabled() {
		return errf("testbed: adaptive control needs parking enabled")
	}
	switch s.Program.Kind {
	case "":
		if s.Program.Spec != nil {
			return errf("testbed: Program.Spec set without Program.Kind \"custom\"")
		}
	case "compress":
		if s.Program.Spec != nil {
			return errf("testbed: Program.Kind \"compress\" is built-in (drop Spec, or use Kind \"custom\")")
		}
	case "custom":
		if s.Program.Spec == nil {
			return errf("testbed: Program.Kind \"custom\" needs a Spec")
		}
		if s.Program.Spec.UsesRecircPipe() {
			return errf("testbed: custom specs cannot target the recirculation pipe (the built-in program owns it; use Parking.Recirculate)")
		}
		if s.Parking.Enabled() && s.Program.Spec.ParksPayload() {
			return errf("testbed: custom spec %q parks payload while Parking is enabled; both programs would claim the same packets (disable one)", s.Program.Spec.Name)
		}
	default:
		return errf("testbed: unknown Program.Kind %q (want \"compress\" or \"custom\")", s.Program.Kind)
	}
	return nil
}

func (t Testbed) run(ctx context.Context, s *Scenario) (*Report, error) {
	warmup, measure := s.Opts.windows()
	dist := s.Traffic.dist()
	if dist == nil && s.Traffic.Source == nil {
		dist = trafficgen.Datacenter{}
	}
	chain := s.Chain
	if chain == nil {
		chain = func() *nf.Chain { return nf.NewChain(nf.MACSwap{}) }
	}
	cfg := sim.TestbedConfig{
		Name:             s.Name,
		LinkBps:          defFloat(t.LinkBps, 10e9),
		SendBps:          s.Traffic.SendBps,
		Dist:             dist,
		Flows:            s.Traffic.Flows,
		Source:           s.Traffic.Source,
		Seed:             s.Opts.Seed,
		BuildChain:       chain,
		Server:           s.Server,
		PayloadPark:      s.Parking.Enabled(),
		ExplicitDrop:     s.Parking.ExplicitDrop,
		WarmupNs:         warmup,
		MeasureNs:        measure,
		SwitchQueueBytes: t.SwitchQueueBytes,
		PropNs:           t.PropNs,
		NFLinkLossRate:   t.NFLinkLossRate,
		Control:          s.Control.config(),
		Cancel:           CancelFunc(ctx),
	}
	ob := newObsSetup(s.Observe)
	cfg.Obs = ob.simCfg()
	if cfg.PayloadPark {
		cfg.PP = core.Config{
			Slots:          s.Parking.Slots,
			MaxExpiry:      s.Parking.MaxExpiry,
			Recirculate:    s.Parking.Recirculate,
			BoundaryOffset: s.Parking.BoundaryOffset,
		}
	}
	switch s.Program.Kind {
	case "compress":
		cfg.Programs = []sim.ProgramAttachment{{Spec: prog.HeaderCompressSpec(prog.CompressParams{
			Slots: s.Program.Slots, MaxExpiry: s.Program.MaxExpiry,
		})}}
	case "custom":
		cfg.Programs = []sim.ProgramAttachment{{Spec: s.Program.Spec, Params: s.Program.Params}}
	}
	res := sim.RunTestbed(cfg)
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
	if err := (sim.MultiServerConfig{Servers: defInt(m.Servers, 8)}).Validate(); err != nil {
		return errf("multiserver: %v", err)
	}
	if s.Chain != nil {
		return errf("multiserver: custom Chain unsupported (the §6.2.3 deployment pins the MAC-swap chain)")
	}
	if s.Traffic.Source != nil {
		return errf("multiserver: Traffic.Source unsupported")
	}
	if s.Traffic.Flows != 0 && s.Traffic.Flows != sim.MultiServerFlows {
		return errf("multiserver: Traffic.Flows is pinned to %d (leave it zero)", sim.MultiServerFlows)
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
	warmup, measure := s.Opts.windows()
	dist := s.Traffic.dist()
	if dist == nil {
		dist = trafficgen.Fixed(384)
	}
	cfg := sim.MultiServerConfig{
		Servers:        defInt(m.Servers, 8),
		LinkBps:        defFloat(m.LinkBps, 10e9),
		SendBps:        s.Traffic.SendBps,
		Dist:           dist,
		SlotsPerServer: s.Parking.Slots,
		MaxExpiry:      s.Parking.MaxExpiry,
		Server:         s.Server,
		Cores:          m.Cores,
		PayloadPark:    s.Parking.Enabled(),
		Seed:           s.Opts.Seed,
		WarmupNs:       warmup,
		MeasureNs:      measure,
		Cancel:         CancelFunc(ctx),
	}
	ob := newObsSetup(s.Observe)
	cfg.Obs = ob.simCfg()
	res := sim.RunMultiServer(cfg)
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
	switch s.Program.Kind {
	case "":
		if s.Program.Spec != nil {
			return errf("leafspine: Program.Spec set without Program.Kind")
		}
	case "compress":
		if s.Program.Spec != nil {
			return errf("leafspine: Program.Kind \"compress\" is built-in (drop Spec)")
		}
	case "custom":
		return errf("leafspine: custom Program specs are Testbed-only (use Kind \"compress\")")
	default:
		return errf("leafspine: unknown Program.Kind %q (want \"compress\")", s.Program.Kind)
	}
	// Geometry, merge-port collision, reroute, ECMP x every-hop and
	// compress x every-hop: the fabric's own rules.
	if err := l.simConfig(s).Validate(); err != nil {
		return errf("leafspine: %v", err)
	}
	if s.Chain != nil {
		return errf("leafspine: custom Chain unsupported (fabric NFs pin the MAC-swap chain)")
	}
	if s.Traffic.Source != nil {
		return errf("leafspine: Traffic.Source unsupported")
	}
	if s.Parking.Recirculate || s.Parking.BoundaryOffset != 0 || s.Parking.ExplicitDrop {
		return errf("leafspine: Recirculate/BoundaryOffset/ExplicitDrop unsupported")
	}
	if s.Control.Adaptive && !s.Control.ECMP && !s.Parking.Enabled() {
		return errf("leafspine: adaptive control needs parking enabled")
	}
	return nil
}

// simConfig maps the scenario onto the fabric's configuration (Cancel and
// Obs are run-time wiring, added by run).
func (l LeafSpine) simConfig(s *Scenario) sim.FabricConfig {
	warmup, measure := s.Opts.windows()
	return sim.FabricConfig{
		Leaves:            l.Leaves,
		Spines:            l.Spines,
		LinkBps:           l.LinkBps,
		SendBps:           s.Traffic.SendBps,
		Dist:              s.Traffic.dist(),
		Flows:             s.Traffic.Flows,
		Mode:              s.Parking.Mode,
		Slots:             s.Parking.Slots,
		MaxExpiry:         s.Parking.MaxExpiry,
		Compress:          s.Program.Kind == "compress",
		CompressSlots:     s.Program.Slots,
		CompressMaxExpiry: s.Program.MaxExpiry,
		Server:            s.Server,
		Seed:              s.Opts.Seed,
		WarmupNs:          warmup,
		MeasureNs:         measure,
		PropNs:            l.PropNs,
		QueueBytes:        l.QueueBytes,
		FailLink:          l.FailLink,
		FailAtNs:          l.FailAtNs,
		RerouteNs:         l.RerouteNs,
		ECMP:              s.Control.ECMP,
		Control:           s.Control.config(),
		Partitions:        s.Opts.Partitions,
	}
}

func (l LeafSpine) run(ctx context.Context, s *Scenario) (*Report, error) {
	cfg := l.simConfig(s)
	cfg.Cancel = CancelFunc(ctx)
	ob := newObsSetup(s.Observe)
	cfg.Obs = ob.simCfg()
	res := sim.RunLeafSpine(cfg)
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

// --- Custom ---

func (c Custom) validate(s *Scenario) error {
	if c.Run == nil {
		return errf("custom topology %q has a nil Run hook", c.Kind())
	}
	if s.Observe != (Observe{}) {
		return errf("custom: Observe is unsupported (the hook owns its own sim configs; wire sim.ObsConfig there)")
	}
	return nil
}

func (c Custom) run(ctx context.Context, s *Scenario) (*Report, error) {
	return c.Run(ctx, *s)
}

func defFloat(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}
