// Package payloadpark is a faithful software reproduction of
// "Parking Packet Payload with P4" (Goswami et al., CoNEXT 2020).
//
// PayloadPark improves the goodput of shallow network functions (NFs) —
// firewalls, NATs, L4 load balancers — by parking packet payloads in the
// stateful memory of a programmable switch: only headers travel to the NF
// server, and the switch reassembles the packet when the headers return.
//
// This package is the public facade over the internal reproduction:
//
//   - Run is the simulation entrypoint: one Scenario descriptor — a
//     Topology (testbed, multi-server, leaf-spine, live, or custom), a
//     Parking policy, a Traffic spec, a ServerModel, and RunOptions —
//     executed into one structured, JSON-serializable Report. RunSweep
//     expands a Sweep (a base Scenario plus parameter Axes) into a grid
//     and runs the points in parallel, honoring context cancellation
//     mid-simulation.
//   - LiveTopology swaps the simulator for real UDP loopback sockets:
//     the same compiled pipeline behind per-pipe worker sockets, with
//     deterministic lockstep replays held to exact counter parity
//     against an in-process reference, or open-loop wire-rate runs.
//   - Deployment builds the canonical testbed (traffic generator, RMT
//     switch running the PayloadPark P4 program, NF server) and lets
//     applications push packets through it in-process.
//   - Experiments exposes the per-figure/table reproduction harness.
//
// The dataplane is byte-accurate: Split really removes the parked bytes
// from the packet and stores them in register cells that obey the RMT
// one-stateful-access-per-table restriction; Merge really reassembles the
// original bytes. Running the same traffic with and without PayloadPark
// yields byte-identical output (§6.2.6 of the paper).
package payloadpark

import (
	"context"
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/harness"
	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Re-exported building blocks. The aliases keep the public API to one
// import while the implementation stays modular.
type (
	// Packet is a parsed network packet (Ethernet/IPv4/UDP|TCP, optional
	// PayloadPark header).
	Packet = packet.Packet
	// FiveTuple is the flow key shallow NFs examine.
	FiveTuple = packet.FiveTuple
	// MAC is an Ethernet address.
	MAC = packet.MAC
	// IPv4Addr is an IPv4 address.
	IPv4Addr = packet.IPv4Addr
	// NF is a shallow network function.
	NF = nf.NF
	// Chain is an ordered NF chain.
	Chain = nf.Chain
	// FirewallRule blacklists an IPv4 source prefix.
	FirewallRule = nf.FirewallRule
	// SlimDPINF classifies packets by a payload-prefix scan (§7).
	SlimDPINF = nf.SlimDPI
	// Config parameterizes the PayloadPark program (lookup table size,
	// expiry threshold, recirculation).
	Config = core.Config
	// Counters are the switch program's monitoring counters.
	Counters = core.Counters
	// SimResult is a simulated deployment's measurements.
	SimResult = sim.Result
	// ServerModel calibrates the simulated NF server.
	ServerModel = sim.ServerModel
	// CoreStat is one NF-server core's drop/occupancy record.
	CoreStat = sim.CoreStat
	// SizeDist draws packet sizes for generated traffic.
	SizeDist = trafficgen.SizeDist
	// Experiment is one paper table/figure reproduction.
	Experiment = harness.Experiment
)

// The unified Scenario API: one descriptor, one entrypoint, every
// topology. See Run and RunSweep.
type (
	// Scenario is one point of the evaluation grid: Topology + Parking +
	// Traffic + ServerModel + RunOptions.
	Scenario = scenario.Scenario
	// Topology is the deployment-shape sum type; TestbedTopology,
	// MultiServerTopology, LeafSpineTopology and CustomTopology are its
	// members.
	Topology = scenario.Topology
	// TestbedTopology is the paper's canonical single-switch testbed
	// (Fig. 5).
	TestbedTopology = scenario.Testbed
	// MultiServerTopology is the §6.2.3 shared-switch deployment
	// (up to 8 NF servers).
	MultiServerTopology = scenario.MultiServer
	// LeafSpineTopology is the multi-switch fabric.
	LeafSpineTopology = scenario.LeafSpine
	// LiveTopology runs the scenario on real UDP loopback sockets instead
	// of the discrete-event simulator: per-pipe worker sockets around the
	// same compiled switch pipeline, a socket NF daemon, and (with
	// Control) a controller driving the fabric over a socket-backed
	// control protocol. Lockstep runs replay deterministically and match
	// the in-process reference counter for counter; the default
	// throughput mode measures open-loop loopback wire rate.
	LiveTopology = scenario.Live
	// CustomTopology is the escape hatch: a user hook that runs the
	// composed scenario on a bespoke deployment.
	CustomTopology = scenario.Custom
	// ParkingPolicy selects where and how payloads park (the zero value
	// is the baseline).
	ParkingPolicy = scenario.Parking
	// ProgramPolicy is the declarative table-program section of a
	// Scenario: Kind "compress" runs the built-in ROHC-style
	// header-compression spec, Kind "custom" installs an arbitrary
	// serialized ProgramSpec (Testbed only). The zero value installs
	// nothing.
	ProgramPolicy = scenario.Program
	// ProgramSpec is a declarative table program — parser geometry,
	// match-action tables, and register layouts as data. Specs round-trip
	// through JSON, so new policies need no Go code; installing one
	// (ProgramPolicy Kind "custom") compiles it against the same RMT
	// stage/SRAM budgets as the built-in program.
	ProgramSpec = prog.Spec
	// ProgramInstance is a compiled, installed ProgramSpec: live counters,
	// registers, and runtime parameters.
	ProgramInstance = prog.Instance
	// ProgramCounters is one installed program's counter report in
	// Report.Programs.
	ProgramCounters = sim.ProgramCounters
	// ParkSpecParams / CompressSpecParams parameterize the built-in spec
	// builders.
	ParkSpecParams     = prog.ParkParams
	CompressSpecParams = prog.CompressParams
	// Control is the control-plane spec of a Scenario: ECMP multipath
	// routing (LeafSpine) and/or the fabric-wide adaptive parking policy,
	// both driven by a telemetry-tick controller. The zero value keeps
	// tables static.
	Control = scenario.Control
	// ControlReport is the controller's structured outcome in
	// Report.Control: tick bookkeeping, per-kind totals, and the decision
	// timeline.
	ControlReport = ctrl.Report
	// ControlDecision is one timestamped control-plane action in the
	// decision timeline.
	ControlDecision = ctrl.Decision
	// Traffic is the offered-load spec.
	Traffic = scenario.Traffic
	// Observe is the observability spec of a Scenario: Metrics snapshots
	// a registry of engine/switch/parking counters into Report.Metrics,
	// Trace records the packet-lifecycle flight recorder into
	// Report.Trace (simulated topologies only). Both default off; a dark
	// scenario pays no instrumentation cost.
	Observe = scenario.Observe
	// MetricsSnapshot is the counters/gauges/histograms section in
	// Report.Metrics.
	MetricsSnapshot = obs.Snapshot
	// FlightTrace is the recorded packet-lifecycle timeline in
	// Report.Trace; export it with WriteChrome (Perfetto /
	// chrome://tracing JSON).
	FlightTrace = obs.Trace
	// RunOptions are the execution knobs (seed, quick, window, progress).
	RunOptions = scenario.RunOptions
	// Report is the structured result of one Run, topology-independent
	// headline metrics plus the embedded per-topology detail.
	Report = scenario.Report
	// LiveResult is the socket fabric's measurement in Report.Live:
	// delivery and NF accounting, merged program counters, and (in
	// throughput mode) the loopback wire rate.
	LiveResult = live.Result
	// LiveCounterSet is the merged switch-counter section of a
	// LiveResult; lockstep runs hold it to exact equality with the
	// in-process reference replay.
	LiveCounterSet = live.CounterSet
	// Sweep is a parameter grid over a base Scenario.
	Sweep = scenario.Sweep
	// Axis is one sweep dimension; AxisPoint one value on it.
	Axis      = scenario.Axis
	AxisPoint = scenario.AxisPoint
	// SweepPoint / SweepReport are RunSweep's structured results.
	SweepPoint  = scenario.SweepPoint
	SweepReport = scenario.SweepReport
	// TrafficSource is an arbitrary packet stream (pcap replay) for
	// Traffic.Source.
	TrafficSource = trafficgen.Source
	// CDFPoint is one latency-distribution quantile in Report.LatencyCDF.
	CDFPoint = sim.CDFPoint
)

// Run executes one Scenario — any topology — and returns its structured
// Report. Cancellation is honored mid-simulation: the context's Done
// channel is polled by the event engine every few thousand events.
func Run(ctx context.Context, s Scenario) (*Report, error) { return scenario.Run(ctx, s) }

// RunSweep expands the sweep's parameter grid and runs its points in
// parallel across a worker pool. On cancellation it returns the partial
// report alongside ctx.Err(); completed points are retained.
func RunSweep(ctx context.Context, sw Sweep) (*SweepReport, error) { return scenario.RunSweep(ctx, sw) }

// Axis constructors for common sweep dimensions; AxisOf builds an axis
// from arbitrary setters.
var (
	AxisOf         = scenario.AxisOf
	SendGbpsAxis   = scenario.SendGbpsAxis
	ParkingAxis    = scenario.ParkingAxis
	ControlAxis    = scenario.ControlAxis
	CoresAxis      = scenario.CoresAxis
	PacketSizeAxis = scenario.PacketSizeAxis
	SlotsAxis      = scenario.SlotsAxis
	SeedAxis       = scenario.SeedAxis
)

// CancelFunc adapts a context to the simulation configs' Cancel hook —
// CustomTopology implementations pass it to their sim config so
// mid-simulation cancellation works for them too.
func CancelFunc(ctx context.Context) func() bool { return scenario.CancelFunc(ctx) }

// Built-in table-program spec builders: the paper's parking program, the
// ROHC-style header-compression program, and both combined on one pipe —
// each returned as plain data that serializes to JSON (the format
// `ppbench -program` runs).
var (
	PayloadParkProgramSpec    = prog.PayloadParkSpec
	HeaderCompressProgramSpec = prog.HeaderCompressSpec
	ParkCompressProgramSpec   = prog.ParkCompressSpec
)

// Parked-payload geometry (fixed by the hardware model, §5 and §6.2.5).
const (
	// ParkBytes is the payload bytes parked per packet without
	// recirculation.
	ParkBytes = core.BaseParkBytes
	// ParkBytesRecirculated is the payload bytes parked with
	// recirculation.
	ParkBytesRecirculated = core.RecircParkBytes
	// HeaderUnitLen is the Ethernet+IPv4+UDP header size the paper uses
	// as the unit of goodput.
	HeaderUnitLen = packet.HeaderUnitLen
)

// NF constructors, re-exported.
var (
	// NewFirewall builds the linear-probe ACL firewall.
	NewFirewall = nf.NewFirewall
	// BlacklistFraction builds a one-rule blacklist dropping roughly the
	// given fraction of uniform 10.0.0.0/8 traffic (Fig. 12's knob).
	BlacklistFraction = nf.BlacklistFraction
	// NewNAT builds the MazuNAT-style source NAT.
	NewNAT = nf.NewNAT
	// NewLoadBalancer builds the Maglev-based L4 load balancer.
	NewLoadBalancer = nf.NewLoadBalancer
	// NewSynthetic builds a MAC-swapping NF with a configurable CPU cost.
	NewSynthetic = nf.NewSynthetic
	// NewSlimDPI builds a payload-prefix classifier; pair it with
	// DeploymentConfig.BoundaryOffset >= its prefix length.
	NewSlimDPI = nf.NewSlimDPI
	// NewRateLimiter builds a per-flow token-bucket policer.
	NewRateLimiter = nf.NewRateLimiter
	// NewChain composes NFs into a chain.
	NewChain = nf.NewChain
)

// Fixed is a constant packet-size distribution.
func Fixed(bytes int) SizeDist { return trafficgen.Fixed(bytes) }

// Datacenter is the paper's bimodal enterprise-datacenter packet-size
// distribution (Fig. 6: mean 882 B, 30% of payloads under 160 B).
func Datacenter() SizeDist { return trafficgen.Datacenter{} }

// Deployment is an in-process PayloadPark testbed: a switch with the
// program installed between a traffic source and an NF chain. It is the
// quickstart surface — push packets, observe split/merge behaviour, read
// counters.
type Deployment struct {
	tb *sim.InProcess
}

// DeploymentConfig configures New.
type DeploymentConfig struct {
	// Slots is the lookup-table capacity (default 4096).
	Slots int
	// MaxExpiry is the eviction threshold (default 1).
	MaxExpiry uint32
	// Recirculate enables 384-byte parking via a second pipe.
	Recirculate bool
	// BoundaryOffset moves the decoupling boundary (§7): the first
	// BoundaryOffset payload bytes stay visible to the NF chain in front
	// of the PayloadPark header (Slim-DPI support).
	BoundaryOffset int
	// Chain is the NF chain the embedded server runs (default: MAC swap).
	Chain *Chain
	// ExplicitDrop enables the §6.2.4 framework modification.
	ExplicitDrop bool
	// Baseline disables the PayloadPark program (pure L2 switch), for
	// equivalence comparisons.
	Baseline bool
}

// Topology MACs of the embedded testbed.
var (
	// GeneratorMAC is the traffic source address.
	GeneratorMAC = sim.MACGen
	// ServerMAC is the NF server address (send packets here).
	ServerMAC = sim.MACNF
	// SinkMAC is the receive side of the generator.
	SinkMAC = sim.MACSink
)

// New builds a deployment.
func New(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Slots == 0 {
		cfg.Slots = 4096
	}
	if cfg.MaxExpiry == 0 {
		cfg.MaxExpiry = 1
	}
	if cfg.Chain == nil {
		cfg.Chain = nf.NewChain(nf.MACSwap{})
	}
	var pp *core.Config
	if !cfg.Baseline {
		pp = &core.Config{
			Slots: cfg.Slots, MaxExpiry: cfg.MaxExpiry,
			Recirculate: cfg.Recirculate, BoundaryOffset: cfg.BoundaryOffset,
		}
	}
	tb, err := sim.NewInProcess(pp, nf.NewServer(nf.ServerConfig{
		Chain:        cfg.Chain,
		ExplicitDrop: cfg.ExplicitDrop,
	}))
	if err != nil {
		return nil, fmt.Errorf("payloadpark: %w", err)
	}
	return &Deployment{tb: tb}, nil
}

// Process pushes one generator packet through switch -> NF chain ->
// switch and returns what the sink receives (nil if dropped anywhere).
// The input packet is mutated; clone it first if you need the original.
func (d *Deployment) Process(pkt *Packet) *Packet { return d.tb.Process(pkt) }

// ProcessFrame is Process at the byte level: frame in, frame out.
func (d *Deployment) ProcessFrame(frame []byte) ([]byte, error) { return d.tb.ProcessFrame(frame) }

// Counters returns the program's monitoring counters (nil state for a
// baseline deployment).
func (d *Deployment) Counters() *Counters {
	if d.tb.Prog == nil {
		return &Counters{}
	}
	return &d.tb.Prog.C
}

// Occupancy returns the number of occupied lookup-table slots.
func (d *Deployment) Occupancy() int {
	if d.tb.Prog == nil {
		return 0
	}
	return d.tb.Prog.Occupancy()
}

// SwitchDrops returns drop counts by reason.
func (d *Deployment) SwitchDrops() map[string]uint64 {
	return d.tb.SW.Drops()
}

// ResourceReport describes switch resource utilization (paper Table 1).
type ResourceReport struct {
	SRAMAvgPct, SRAMPeakPct, TCAMPct, VLIWPct float64
	ExactXbarPct, TernXbarPct, PHVPct         float64
}

// Resources reports the ingress pipe's utilization.
func (d *Deployment) Resources() ResourceReport {
	u := d.tb.SW.Pipe(0).Resources()
	return ResourceReport{
		SRAMAvgPct: u.SRAMAvgPct, SRAMPeakPct: u.SRAMPeakPct,
		TCAMPct: u.TCAMPct, VLIWPct: u.VLIWPct,
		ExactXbarPct: u.ExactXbarPct, TernXbarPct: u.TernXbarPct,
		PHVPct: u.PHVPct,
	}
}

// NewUDPPacket builds a well-formed UDP packet addressed to the embedded
// NF server, with a deterministic payload pattern.
func NewUDPPacket(flow FiveTuple, totalSize int, id uint16) *Packet {
	return packet.NewBuilder(sim.MACGen, sim.MACNF).UDP(flow, totalSize, id)
}

// MultiServerResult carries per-server measurements plus the shared
// switch's SRAM picture.
type MultiServerResult = sim.MultiServerResult

// Fabric topology simulation (multi-switch leaf-spine deployments).
type (
	// FabricResult carries per-flow end-to-end metrics plus per-hop link
	// and switch reports.
	FabricResult = sim.FabricResult
	// ParkMode selects where the fabric parks payloads.
	ParkMode = sim.ParkMode
	// FlowResult is one source->NF->sink flow's measurements.
	FlowResult = sim.FlowResult
	// LinkStats / SwitchStats are the per-hop reports.
	LinkStats   = sim.LinkStats
	SwitchStats = sim.SwitchStats
)

const (
	// ParkNoneMode runs the fabric as plain L2 switches (baseline).
	ParkNoneMode = sim.ParkNone
	// ParkEdgeMode parks at the ingress leaf: slim packets cross every
	// fabric hop and are restored just before leaving the programmable
	// domain.
	ParkEdgeMode = sim.ParkEdge
	// ParkEveryHopMode stripes the payload across the path (§7): every
	// switch parks its own block.
	ParkEveryHopMode = sim.ParkEveryHop
)

// DefaultServerModel is the OpenNetVM-on-Xeon calibration: the paper's
// 8-core machine with RSS receive-side scaling across all cores (see
// ServerModel.Cores).
func DefaultServerModel() ServerModel { return sim.DefaultServerModel() }

// MultiServerModel is the §6.2.3 multi-server calibration: entry-level
// 8-core 2.4 GHz Xeons whose per-core receive cost — not the 10 GbE
// link — caps PayloadPark runs. Use it (optionally with Cores overridden)
// to study how saturation scales with core count.
func MultiServerModel() ServerModel { return harness.MultiServer10G() }

// Experiments returns the per-figure/table reproduction harness.
func Experiments() []Experiment { return harness.All() }

// ExperimentIDs returns every experiment id, sorted.
func ExperimentIDs() []string { return harness.IDs() }

// PortID names a switch port (re-export for advanced switch wiring).
type PortID = rmt.PortID
