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
//     Topology (testbed, multi-server, leaf-spine, or live), a
//     Parking policy, a Traffic spec, a ServerModel, and RunOptions —
//     executed into one structured, JSON-serializable Report. RunSweep
//     expands a Sweep (a base Scenario plus parameter Axes) into a grid
//     and runs the points in parallel, honoring context cancellation
//     mid-simulation.
//   - LiveTopology swaps the simulator for real UDP loopback sockets:
//     the same compiled pipeline behind per-pipe worker sockets, each
//     flow windowed by its own books: a window of at most the parking
//     table's slots holds exact counter parity against an in-process
//     reference, a wider one measures wire rate.
//   - Deployment builds the canonical testbed (traffic generator, RMT
//     switch running the PayloadPark P4 program, NF server) and lets
//     applications push packets through it in-process.
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
	"github.com/payloadpark/payloadpark/internal/harness"
	"github.com/payloadpark/payloadpark/internal/nf"
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
	// IPv4Addr is an IPv4 address.
	IPv4Addr = packet.IPv4Addr
	// Chain is an ordered NF chain.
	Chain = nf.Chain
	// FirewallRule blacklists an IPv4 source prefix.
	FirewallRule = nf.FirewallRule
	// SlimDPINF classifies packets by a payload-prefix scan (§7).
	SlimDPINF = nf.SlimDPI
	// ServerModel calibrates the simulated NF server.
	ServerModel = sim.ServerModel
	// SizeDist draws packet sizes for generated traffic.
	SizeDist = trafficgen.SizeDist
)

// The unified Scenario API: one descriptor, one entrypoint, every
// topology. See Run and RunSweep.
type (
	// Scenario is one point of the evaluation grid: Topology + Parking +
	// Traffic + ServerModel + RunOptions.
	Scenario = scenario.Scenario
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
	// Control) the same controller and plant the simulator runs, each
	// telemetry read and push applied under a per-switch quiesce barrier.
	// Each flow keeps at most Window frames without a fate in flight: at
	// a Window of at most Parking.Slots the run matches the in-process
	// reference counter for counter, and the default wider window
	// measures loopback wire rate.
	LiveTopology = scenario.Live
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
	// CompressSpecParams parameterizes HeaderCompressProgramSpec.
	CompressSpecParams = prog.CompressParams
	// Control is the control-plane spec of a Scenario: ECMP multipath
	// routing (LeafSpine) and/or the fabric-wide adaptive parking policy,
	// both driven by a telemetry-tick controller. The zero value keeps
	// tables static.
	Control = scenario.Control
	// Traffic is the offered-load spec.
	Traffic = scenario.Traffic
	// Observe is the observability spec of a Scenario: Metrics snapshots
	// a registry of engine/switch/parking counters into Report.Metrics,
	// Trace records the packet-lifecycle flight recorder into
	// Report.Trace (simulated topologies only). Both default off; a dark
	// scenario pays no instrumentation cost.
	Observe = scenario.Observe
	// RunOptions are the execution knobs (seed, quick, window).
	RunOptions = scenario.RunOptions
	// Report is the structured result of one Run, topology-independent
	// headline metrics plus the embedded per-topology detail.
	Report = scenario.Report
	// Sweep is a parameter grid over a base Scenario.
	Sweep = scenario.Sweep
	// Axis is one sweep dimension.
	Axis = scenario.Axis
)

// Run executes one Scenario — any topology — and returns its structured
// Report. Cancellation is honored mid-simulation: the context's Done
// channel is polled by the event engine every few thousand events.
func Run(ctx context.Context, s Scenario) (*Report, error) { return scenario.Run(ctx, s) }

// RunSweep expands the sweep's parameter grid and runs its points in
// parallel across a worker pool. On cancellation it returns the partial
// report alongside ctx.Err(); completed points are retained.
func RunSweep(ctx context.Context, sw Sweep) (*scenario.SweepReport, error) {
	return scenario.RunSweep(ctx, sw)
}

// Axis constructors for common sweep dimensions.
var (
	SendGbpsAxis = scenario.SendGbpsAxis
	ParkingAxis  = scenario.ParkingAxis
	CoresAxis    = scenario.CoresAxis
)

// HeaderCompressProgramSpec builds the ROHC-style header-compression
// table program, returned as plain data that serializes to JSON (the
// format `ppbench -program` runs).
var HeaderCompressProgramSpec = prog.HeaderCompressSpec

// Parked-payload geometry (fixed by the hardware model, §5 and §6.2.5).
const (
	// ParkBytes is the payload bytes parked per packet without
	// recirculation.
	ParkBytes = core.BaseParkBytes
	// ParkBytesRecirculated is the payload bytes parked with
	// recirculation.
	ParkBytesRecirculated = core.RecircParkBytes
)

// NF constructors, re-exported.
var (
	// NewFirewall builds the linear-probe ACL firewall.
	NewFirewall = nf.NewFirewall
	// NewNAT builds the MazuNAT-style source NAT.
	NewNAT = nf.NewNAT
	// NewLoadBalancer builds the Maglev-based L4 load balancer.
	NewLoadBalancer = nf.NewLoadBalancer
	// NewSlimDPI builds a payload-prefix classifier; pair it with
	// DeploymentConfig.BoundaryOffset >= its prefix length.
	NewSlimDPI = nf.NewSlimDPI
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

// New builds a deployment.
func New(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Slots == 0 {
		cfg.Slots = 4096
	}
	if cfg.MaxExpiry == 0 {
		cfg.MaxExpiry = 1
	}
	s := sim.Sections{Parking: sim.Parking{
		Mode: sim.ParkEdge, Slots: cfg.Slots, MaxExpiry: cfg.MaxExpiry,
		Recirculate: cfg.Recirculate, BoundaryOffset: cfg.BoundaryOffset,
		ExplicitDrop: cfg.ExplicitDrop,
	}}
	if cfg.Baseline {
		s.Parking.Mode = sim.ParkNone
	}
	if cfg.Chain != nil {
		s.Chain = func() *nf.Chain { return cfg.Chain }
	}
	tb, err := sim.NewInProcess(s)
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
func (d *Deployment) Counters() *core.Counters {
	if d.tb.Prog == nil {
		return &core.Counters{}
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
type ResourceReport = rmt.Usage

// Resources reports the ingress pipe's utilization.
func (d *Deployment) Resources() ResourceReport { return d.tb.SW.Pipe(0).Resources() }

// NewUDPPacket builds a well-formed UDP packet addressed to the embedded
// NF server, with a deterministic payload pattern.
func NewUDPPacket(flow FiveTuple, totalSize int, id uint16) *Packet {
	return packet.NewBuilder(sim.MACGen, sim.MACNF).UDP(flow, totalSize, id)
}

// Fabric topology simulation (multi-switch leaf-spine deployments).
type (
	// ParkMode selects where the fabric parks payloads.
	ParkMode = sim.ParkMode
	// LinkStats is the per-hop link report.
	LinkStats = sim.LinkStats
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

// MultiServerModel is the §6.2.3 multi-server calibration: entry-level
// 8-core 2.4 GHz Xeons whose per-core receive cost — not the 10 GbE
// link — caps PayloadPark runs. Use it (optionally with Cores overridden)
// to study how saturation scales with core count.
func MultiServerModel() ServerModel { return harness.MultiServer10G() }
