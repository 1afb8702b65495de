package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// The sections of a run's description: the types the scenario package
// re-exports as Scenario's fields, and what the topologies' graph builders
// (Testbed.Graph, MultiServer.Graph, LeafSpine.Graph), the event
// simulator's one runner (Run) and live.Run take as parameters. A section
// is declared here, defaulted by the Resolve of the topology that runs it
// and validated by that topology's Validate — the one rulebook: every rule,
// "unsupported on this topology" included, lives in the Validate of the
// topology that reads the section, so a caller that skips the scenario
// package is held to the same rules. Nothing restates a field. Run itself
// takes the sections resolved and builds whatever graph it is given.

// Parking is the PayloadPark policy of a run. The zero value is the
// baseline (no parking); set Mode to park.
type Parking struct {
	// Mode selects where payloads park: ParkNone (baseline), ParkEdge, or
	// ParkEveryHop (leaf-spine striping; on a single-switch topology it is
	// equivalent to ParkEdge). Serialized by name ("baseline", "edge",
	// "everyhop").
	Mode ParkMode `json:"mode,omitempty"`
	// Slots is each installed program's lookup-table capacity (default
	// 8192, 64 on the live socket fabric; per server on MultiServer, per
	// switch on LeafSpine).
	Slots int `json:"slots,omitempty"`
	// MaxExpiry is the eviction threshold (default 1).
	MaxExpiry uint32 `json:"max_expiry,omitempty"`
	// Recirculate enables 384-byte parking via a second pipe
	// (Testbed only).
	Recirculate bool `json:"recirculate,omitempty"`
	// BoundaryOffset moves the §7 decoupling boundary (Testbed only).
	BoundaryOffset int `json:"boundary_offset,omitempty"`
	// ExplicitDrop enables the §6.2.4 framework modification
	// (Testbed and the live chain).
	ExplicitDrop bool `json:"explicit_drop,omitempty"`
}

// Enabled reports whether the policy parks at all.
func (p Parking) Enabled() bool { return p.Mode != ParkNone }

// Core is the program configuration the policy installs between split and
// merge (the topology owns the ports).
func (p Parking) Core(split, merge rmt.PortID) core.Config {
	return core.Config{
		Slots: p.Slots, MaxExpiry: p.MaxExpiry,
		Recirculate: p.Recirculate, BoundaryOffset: p.BoundaryOffset,
		SplitPort: split, MergePort: merge,
	}
}

// Validate is the one home of the parking-table rules: core.Config's
// ranges, reported against the section's field names.
func (p Parking) Validate() error {
	err := p.Core(0, 1).Validate()
	switch {
	case errors.Is(err, core.ErrBadSlots):
		return fmt.Errorf("parking.slots = %d outside [1, %d]", p.Slots, core.MaxSlots)
	case errors.Is(err, core.ErrReissuedTag):
		return fmt.Errorf("parking.slots × parking.max_expiry = %d × %d is a multiple of %d: a re-claimed slot would reissue its evicted packet's tag",
			p.Slots, p.MaxExpiry, core.MaxClock-1)
	case errors.Is(err, core.ErrBadBoundary):
		return fmt.Errorf("parking.boundary_offset = %d outside [0, %d]", p.BoundaryOffset, core.MaxBoundaryOffset)
	case err != nil:
		return fmt.Errorf("parking: %w", err)
	}
	return nil
}

// Program is the declarative table-program policy of a run: switch
// programs loaded from internal/prog specs beyond — or instead of — the
// built-in parking program. The zero value installs nothing extra.
//
// Kind "compress" loads the built-in ROHC-style header-compression spec
// (prog.HeaderCompressSpec): IPv4/UDP headers compress to a 7-byte tagged
// header where the flow enters the programmable domain and restore on the
// way back, saving 21 wire bytes per packet. It composes with Parking on
// both Testbed and LeafSpine.
//
// Kind "custom" loads an arbitrary serialized Spec (Testbed only) — the
// `ppbench -program file.json` path. The topology pins the spec's
// split_port/merge_port parameters to its canonical ports.
//
// Restoring headers rewrites the packet's L3/L4 fields from the stored
// context, so compression must not be combined with NF chains that
// rewrite those fields (NAT); verdict-only and MAC-swap chains are safe.
type Program struct {
	// Kind selects the policy: "" (none), "compress", or "custom".
	Kind string `json:"kind,omitempty"`
	// Slots sizes the compression context table (default 8192; on
	// LeafSpine, the parking Slots).
	Slots int `json:"slots,omitempty"`
	// MaxExpiry is the context eviction threshold (default 1; on
	// LeafSpine, the parking MaxExpiry).
	MaxExpiry uint32 `json:"max_expiry,omitempty"`
	// Spec is the custom table program (Kind "custom" only).
	Spec *prog.Spec `json:"spec,omitempty"`
}

// Enabled reports whether the run loads any table program.
func (p Program) Enabled() bool { return p.Kind != "" }

// IsZero reports whether the section can vanish from the wire form.
func (p Program) IsZero() bool {
	return p.Kind == "" && p.Slots == 0 && p.MaxExpiry == 0 && p.Spec == nil
}

// Validate is the one home of the Kind/Spec rules. custom says whether
// the topology accepts Kind "custom" specs (only the Testbed does);
// parking whether the built-in parking program is installed beside it.
func (p Program) Validate(custom, parking bool) error {
	switch p.Kind {
	case "":
		if p.Spec != nil {
			return errors.New(`Program.Spec set without Program.Kind "custom"`)
		}
	case "compress":
		if p.Spec != nil {
			return errors.New(`Program.Kind "compress" is built-in (drop Spec, or use Kind "custom" on a Testbed)`)
		}
	case "custom":
		switch {
		case !custom:
			return errors.New(`Program.Kind "custom" specs are Testbed-only (use Kind "compress")`)
		case p.Spec == nil:
			return errors.New(`Program.Kind "custom" needs a Spec`)
		case p.Spec.UsesRecircPipe():
			return errors.New("Program.Spec cannot target the recirculation pipe (the built-in program owns it; use Parking.Recirculate)")
		case parking && p.Spec.ParksPayload():
			return fmt.Errorf("Program.Spec %q parks payload while Parking is enabled; both programs would claim the same packets (disable one)", p.Spec.Name)
		}
	default:
		return fmt.Errorf(`unknown Program.Kind %q (want "compress" or, on a Testbed, "custom")`, p.Kind)
	}
	return nil
}

// Traffic is the offered-load spec of a run.
type Traffic struct {
	// SendBps is the offered load per traffic source, in frame
	// bits/second.
	SendBps float64 `json:"send_bps,omitempty"`
	// Dist draws packet sizes (default: the Fig. 6 datacenter mix on
	// Testbed, LeafSpine and Live, Fixed(384) on MultiServer, matching the
	// paper's workloads). Serialized scenarios carry FixedSize instead.
	Dist trafficgen.SizeDist `json:"-"`
	// FixedSize, when non-zero, is the serializable form of a Fixed
	// packet-size distribution: it resolves to trafficgen.Fixed(FixedSize)
	// when Dist is nil. A zero FixedSize with a nil Dist keeps the
	// topology default.
	FixedSize int `json:"fixed_size,omitempty"`
	// Flows is each source's 5-tuple pool size (default 1024 on Testbed
	// and LeafSpine, 256 on Live; MultiServer pins MultiServerFlows).
	Flows int `json:"flows,omitempty"`
	// Source, when non-nil, overrides the synthetic generator with an
	// arbitrary packet stream, e.g. a pcap replay (Testbed only). The
	// builder is called once per run so replays start fresh. Not
	// serializable.
	Source func() trafficgen.Source `json:"-"`
}

// SizeDist resolves the written size distribution (nil means "topology
// default").
func (t Traffic) SizeDist() trafficgen.SizeDist {
	if t.Dist != nil {
		return t.Dist
	}
	if t.FixedSize > 0 {
		return trafficgen.Fixed(t.FixedSize)
	}
	return nil
}

// Validate is the one home of the resolved Traffic section's size rule:
// a fixed frame smaller than its own headers is padded up by the packet
// builder while every rate is still computed from the written size, and a
// negative one silently falls back to the topology's default mix.
func (t Traffic) Validate() error {
	f, _ := t.Dist.(trafficgen.Fixed) // a Fixed written as Dist obeys the same rule
	for _, size := range []int{t.FixedSize, int(f)} {
		if size != 0 && (size < trafficgen.MinPacketSize || size > trafficgen.MaxPacketSize) {
			return fmt.Errorf("traffic.fixed_size = %d outside [%d, %d]", size, trafficgen.MinPacketSize, trafficgen.MaxPacketSize)
		}
	}
	return nil
}

// RunOptions are the execution knobs shared by every topology.
type RunOptions struct {
	// Seed drives all randomness.
	Seed int64 `json:"seed,omitempty"`
	// Quick shrinks the default measurement window for CI-speed runs
	// (2 ms warmup + 8 ms measured instead of 10 + 40; on Live it quarters
	// the default frame budget). It applies per field: whichever of
	// WarmupNs/MeasureNs is set explicitly wins over Quick for that field
	// alone.
	Quick bool `json:"quick,omitempty"`
	// WarmupNs/MeasureNs bound the measurement window explicitly.
	WarmupNs  int64 `json:"warmup_ns,omitempty"`
	MeasureNs int64 `json:"measure_ns,omitempty"`
	// Deprecated: Partitions is ignored; every run takes one engine's
	// timeline. It is still decoded so older Scenario files load, and goes
	// with the benchmark's two-partition workload (ROADMAP item 0).
	Partitions int `json:"partitions,omitempty"`
}

// Windows resolves the measurement window.
func (o RunOptions) Windows() (warmup, measure int64) {
	warmup, measure = 10e6, 40e6
	if o.Quick {
		warmup, measure = 2e6, 8e6
	}
	if o.WarmupNs != 0 {
		warmup = o.WarmupNs
	}
	if o.MeasureNs != 0 {
		measure = o.MeasureNs
	}
	return warmup, measure
}

// window is the resolved measurement window on the run's clock.
func (o RunOptions) window() (start, end int64) { return o.WarmupNs, o.WarmupNs + o.MeasureNs }

// Sections is everything a run reads besides its own topology: the
// Scenario's sections, by value and under the Scenario's field names.
type Sections struct {
	Name    string // labels the run in results
	Parking Parking
	Program Program
	Control ctrl.Config // a controller runs iff Control.Enabled()
	Traffic Traffic
	Server  ServerModel      // NF server calibration (zero value: DefaultServerModel)
	Chain   func() *nf.Chain // a fresh NF chain per run (Testbed only; nil: the MAC swap)
	Opts    RunOptions
}

// Wiring binds one run to its caller; none of it describes the run.
type Wiring struct {
	// Cancel, when non-nil, is polled periodically by the event engine;
	// once it returns true the run stops early and the result is partial.
	// The scenario layer binds it to a context's Done channel.
	Cancel func() bool
	// Obs arms the observability layer (metrics and/or the flight
	// recorder); the zero value keeps it off.
	Obs ObsConfig
}

// def fills *p with v when it is the zero value ("zero means default").
func def[T comparable](p *T, v T) {
	var zero T
	if *p == zero {
		*p = v
	}
}

// Resolve fills the sections' zero fields. The arguments are the defaults
// that depend on the topology (its Resolve passes them); everything else
// is the same everywhere. Explicit values always win, so a written 8192 is
// never mistaken for an unset field.
func (s *Sections) Resolve(slots int, dist trafficgen.SizeDist, flows int) {
	def(&s.Parking.Slots, slots)
	def(&s.Parking.MaxExpiry, 1)
	if s.Traffic.Dist = s.Traffic.SizeDist(); s.Traffic.Dist == nil {
		s.Traffic.Dist = dist
	}
	def(&s.Traffic.Flows, flows)
	s.Opts.WarmupNs, s.Opts.MeasureNs = s.Opts.Windows()
	if s.Server.FreqHz == 0 {
		s.Server = DefaultServerModel()
	}
}

// fixedNF is the rule of every topology that pins its NF chain and its
// generators: a custom Chain or a replay Source is the testbed's alone.
// why says what pins the chain.
func (s Sections) fixedNF(why string) error {
	switch {
	case s.Chain != nil:
		return fmt.Errorf("custom Chain unsupported (%s)", why)
	case s.Traffic.Source != nil:
		return errors.New("Traffic.Source unsupported")
	case s.Parking.Recirculate || s.Parking.BoundaryOffset != 0 || s.Parking.ExplicitDrop:
		return errors.New("Recirculate/BoundaryOffset/ExplicitDrop unsupported")
	}
	return nil
}

// checkEdge is the one home of the range rules for what every edge is
// built from: the parking table, the frame size, then the values the edge
// hands the event engine — a non-positive rate paces a packet every
// nanosecond or serializes backwards in time and still reports a
// healthy-looking run — reported against their JSON field names.
func (s Sections) checkEdge(linkBps float64) error {
	if err := s.Parking.Validate(); err != nil {
		return err
	}
	if err := s.Traffic.Validate(); err != nil {
		return err
	}
	rate := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) } // false for NaN too
	switch {
	case !rate(s.Traffic.SendBps):
		return fmt.Errorf("traffic.send_bps = %g outside (0, +Inf)", s.Traffic.SendBps)
	case !rate(linkBps):
		return fmt.Errorf("link_bps = %g outside (0, +Inf)", linkBps)
	case s.Opts.WarmupNs < 0:
		return fmt.Errorf("opts.warmup_ns = %d outside [0, +Inf)", s.Opts.WarmupNs)
	case s.Opts.MeasureNs < 1:
		return fmt.Errorf("opts.measure_ns = %d outside [1, +Inf)", s.Opts.MeasureNs)
	}
	return nil
}

// The simulated topologies' default parking table (the live socket fabric
// defaults smaller), and the propagation delay and egress buffer of every
// simulated link.
const (
	simSlots      = 8192
	simPropNs     = 500
	simQueueBytes = 1 << 20
)

// Testbed is the paper's canonical Fig. 5 single-switch topology:
// traffic generator -> switch -> NF server, with the generator's receive
// side as the sink. It is the only topology that accepts a custom NF
// chain, a replay Source, and the recirculation / boundary-offset /
// explicit-drop parking knobs.
type Testbed struct {
	// LinkBps is the switch<->NF-server line rate (default 10 GbE).
	LinkBps float64 `json:"link_bps,omitempty"`
	// NFLinkLossRate, in [0, 1], injects random loss on both directions of
	// the switch<->NF link (§7 failure scenarios). Lost split packets orphan
	// their parked payloads; the payload evictor must reclaim them.
	NFLinkLossRate float64 `json:"nf_link_loss_rate,omitempty"`
}

// Resolve fills the testbed's and the sections' defaults.
func (t *Testbed) Resolve(s *Sections) {
	def(&t.LinkBps, 10e9)
	s.Resolve(simSlots, trafficgen.Datacenter{}, 1024)
}

// Validate reports the first rule a resolved testbed run breaks.
func (t Testbed) Validate(s Sections) error {
	if s.Control.ECMP {
		return errors.New("ECMP needs a multipath topology (use LeafSpine)")
	}
	if err := s.Program.Validate(true, s.Parking.Enabled()); err != nil {
		return err
	}
	if err := s.Control.Validate(s.Parking.Enabled()); err != nil {
		return err
	}
	if !(t.NFLinkLossRate >= 0 && t.NFLinkLossRate <= 1) { // false for NaN too
		return fmt.Errorf("nf_link_loss_rate = %g outside [0, 1]", t.NFLinkLossRate)
	}
	return s.checkEdge(t.LinkBps)
}

// MultiServer is the §6.2.3 deployment: up to 8 NF servers (each
// running a MAC-swap chain) sharing one switch, two per pipe, with the
// reserved switch memory statically sliced between them.
type MultiServer struct {
	// Servers is the NF server count (1..8, default 8).
	Servers int `json:"servers,omitempty"`
	// LinkBps is each server's link rate (default 10 GbE).
	LinkBps float64 `json:"link_bps,omitempty"`
}

// MultiServerFlows is each generator's 5-tuple pool size: large enough
// that the RSS hash spreads load over 8 cores with only a few percent of
// share noise, small enough to keep flow state cheap. Exported so the
// harness's single-server peak probes offer the same RSS load
// distribution as the multi-server runs they calibrate.
const MultiServerFlows = 2048

// Resolve fills the deployment's and the sections' defaults.
func (m *MultiServer) Resolve(s *Sections) {
	def(&m.Servers, 8)
	def(&m.LinkBps, 10e9)
	s.Resolve(simSlots, trafficgen.Fixed(384), MultiServerFlows)
}

// Validate reports the first rule a resolved multi-server run breaks: a
// knob only another topology runs (a custom chain or source, the
// testbed's parking knobs, striping, a controller, a table program), a
// server count the switch cannot host (two per pipe), a flow pool other
// than the pinned one, or a parking table out of range.
func (m MultiServer) Validate(s Sections) error {
	if err := s.fixedNF("the §6.2.3 deployment pins the MAC-swap chain"); err != nil {
		return err
	}
	switch {
	case s.Parking.Mode == ParkEveryHop:
		return errors.New("ParkEveryHop needs a multi-switch topology")
	case s.Control.Enabled():
		return errors.New("control plane unsupported (use Testbed or LeafSpine)")
	case s.Program.Enabled() || s.Program.Spec != nil:
		return errors.New("table programs unsupported (use Testbed or LeafSpine)")
	}
	if m.Servers < 1 || m.Servers > 8 {
		return fmt.Errorf("servers = %d outside [1,8]", m.Servers)
	}
	if s.Traffic.Flows != MultiServerFlows {
		return fmt.Errorf("Traffic.Flows is pinned to %d (leave it zero)", MultiServerFlows)
	}
	return s.checkEdge(m.LinkBps)
}

// LeafSpine is the multi-switch fabric topology: every leaf hosts a
// traffic source, a sink, and an NF server; flow i enters at leaf i, is
// served by the NF at leaf (i+1) mod Leaves, and crosses spine i mod
// Spines in both directions. Parking follows Parking.Mode (park-at-edge
// or §7 every-hop striping).
type LeafSpine struct {
	// Leaves and Spines size the fabric (defaults 4 and 2). When payloads
	// park (or headers compress), every flow's spine affinity must differ
	// from its egress leaf's — see CheckLeafSpine.
	Leaves int `json:"leaves,omitempty"`
	Spines int `json:"spines,omitempty"`
	// LinkBps is the fabric and edge link rate (default 10 GbE).
	LinkBps float64 `json:"link_bps,omitempty"`
	// FailLink enables the link-failure scenario: flow 0's forward
	// spine->leaf link goes down at FailAtNs (default: a quarter into the
	// measurement window) and the forward path is rerouted onto the
	// alternate spine RerouteNs later (default 2 ms: route detection +
	// programming delay; with a controller, at its next tick instead).
	// The parked state at the ingress leaf survives, because the merge
	// port pins the return path; only packets in flight on the dead link
	// orphan their parked payloads. Neither time may be negative.
	FailLink  bool  `json:"fail_link,omitempty"`
	FailAtNs  int64 `json:"fail_at_ns,omitempty"`
	RerouteNs int64 `json:"reroute_ns,omitempty"`
}

// Resolve fills the fabric's and the sections' defaults; the compression
// context table follows the parking table unless sized explicitly.
func (l *LeafSpine) Resolve(s *Sections) {
	def(&l.Leaves, 4)
	def(&l.Spines, 2)
	def(&l.LinkBps, 10e9)
	s.Resolve(simSlots, trafficgen.Datacenter{}, 1024)
	def(&l.FailAtNs, s.Opts.WarmupNs+s.Opts.MeasureNs/4)
	def(&l.RerouteNs, 2e6)
	def(&s.Program.Slots, s.Parking.Slots)
	def(&s.Program.MaxExpiry, s.Parking.MaxExpiry)
}

// CheckLeafSpine is the one home of the leaf-spine geometry rules, shared
// by the simulated fabric and the live "LxS" socket fabric (both use the
// same port layout: flow i crosses spine i mod spines both ways). pinned
// says whether leaves install a merge or restore port: a slim transit
// packet entering the egress leaf on that leaf's merge port would be
// treated as a merge with a foreign tag and dropped as a premature
// eviction, so every flow's spine affinity must differ from its egress
// leaf's (4x2 and 6x3 qualify; 4x3 does not — flow 3's affinity collides
// with leaf 0's).
func CheckLeafSpine(leaves, spines int, pinned bool) error {
	if leaves < 2 || leaves > core.PortsPerPipe || spines < 1 || spines > core.PortsPerPipe-3 {
		return fmt.Errorf("%dx%d outside supported geometry (2..%d leaves, 1..%d spines)",
			leaves, spines, core.PortsPerPipe, core.PortsPerPipe-3)
	}
	if !pinned {
		return nil
	}
	for i := 0; i < leaves; i++ {
		if j := (i + 1) % leaves; i%spines == j%spines {
			return fmt.Errorf("%dx%d cannot park: flow %d's forward path enters leaf %d on its merge port (try 4x2 or 6x3)", leaves, spines, i, j)
		}
	}
	return nil
}

// Validate reports the first leaf-spine rule a resolved run breaks: the
// knobs only the testbed runs, then the geometry and mode-combination
// rules (CheckLeafSpine holds the geometry the live fabric shares).
func (l LeafSpine) Validate(s Sections) error {
	if err := s.fixedNF("fabric NFs pin the MAC-swap chain"); err != nil {
		return err
	}
	if err := s.Program.Validate(false, s.Parking.Enabled()); err != nil {
		return err
	}
	if err := s.Control.Validate(s.Parking.Enabled()); err != nil {
		return err
	}
	compress := s.Program.Kind == "compress"
	// Compression pins its restore port like ParkEdge pins its merge
	// port, so the same geometry requirement applies.
	pinned := s.Parking.Enabled() || compress
	if s.Control.ECMP && s.Parking.Mode == ParkEveryHop {
		return fmt.Errorf("ECMP cannot stripe: park-at-every-hop programs are installed on each flow's static path")
	}
	if compress && s.Parking.Mode == ParkEveryHop {
		return fmt.Errorf("compression cannot ride every-hop striping: wire-parse hops would re-parse compressed transit frames")
	}
	if err := CheckLeafSpine(l.Leaves, l.Spines, pinned); err != nil {
		return err
	}
	switch {
	case l.FailLink && l.FailAtNs < 0:
		return fmt.Errorf("fail_at_ns = %d outside [0, +Inf)", l.FailAtNs)
	case l.FailLink && l.RerouteNs < 0:
		return fmt.Errorf("reroute_ns = %d outside [0, +Inf)", l.RerouteNs)
	}
	if pinned && l.FailLink && l.Spines < 3 {
		return fmt.Errorf("parking-safe reroute needs a third spine (got %d): with two, the alternate path arrives on the egress leaf's merge port", l.Spines)
	}
	return s.checkEdge(l.LinkBps)
}
