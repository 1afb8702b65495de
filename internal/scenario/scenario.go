// Package scenario is the unified simulation entrypoint behind the
// public payloadpark API: one Scenario descriptor composes a Topology
// (testbed, multi-server, leaf-spine, or live), a Parking policy, a
// Traffic spec, a ServerModel and RunOptions; Run executes it and
// returns one structured, JSON-serializable Report regardless of
// topology. Sweep expands a parameter grid over a base Scenario and runs
// the points in parallel with context cancellation honored
// mid-simulation.
//
// The paper's evaluation (§6) is exactly such a grid — topology ×
// parking mode × traffic × server calibration — and the per-figure
// harness builds its experiments as Scenarios and Sweeps over this
// package.
//
// A Scenario's sections are not this package's own: each is declared,
// defaulted (Resolve) and validated (Validate) in the package that reads
// it — internal/sim, internal/ctrl, internal/live — and re-exported here
// under the Scenario's names.
package scenario

import (
	"context"
	"fmt"

	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// Topology selects the deployment shape a Scenario runs on. It is a
// closed sum over the supported shapes: Testbed, MultiServer, LeafSpine
// and Live. Each converts to its package's own type, whose Validate
// (sim.Testbed.Validate, ..., live.Topology.Validate) is the one rulebook
// for it — including which sections it does not run — so Run and a
// direct call reject the same descriptions with the same words. The three
// simulated shapes are graph builders: each resolves the sections, builds
// its sim.Graph, and views the one sim.Outcome that sim.Run measures on
// it; Live runs on live.Run.
type Topology interface {
	// Kind names the topology in reports and in the JSON envelope
	// ("testbed", "multiserver", "leafspine" or "live").
	Kind() string
	// run executes the scenario on this topology under w, which Run binds
	// to ctx and the Observe spec; the topology's package resolves and
	// validates the sections and reports its own errors.
	run(ctx context.Context, s *Scenario, w sim.Wiring) (*Report, error)
}

// The serializable topologies are defined types over the struct their
// package declares (sim.Testbed, sim.MultiServer, sim.LeafSpine,
// live.Topology): same fields, same JSON form, converted — not copied —
// when handed over. See those types for the field docs.

// Testbed is the paper's canonical Fig. 5 single-switch topology.
type Testbed sim.Testbed

// Kind implements Topology.
func (Testbed) Kind() string { return "testbed" }

// MultiServer is the §6.2.3 deployment: up to 8 NF servers on one switch.
type MultiServer sim.MultiServer

// Kind implements Topology.
func (MultiServer) Kind() string { return "multiserver" }

// LeafSpine is the multi-switch fabric topology.
type LeafSpine sim.LeafSpine

// Kind implements Topology.
func (LeafSpine) Kind() string { return "leafspine" }

// The sections of a Scenario are the sim and ctrl packages' own types,
// re-exported: see sim.Parking, sim.Program, ctrl.Config, sim.Traffic and
// sim.RunOptions for the fields, their defaults and their rules.
type (
	Parking    = sim.Parking
	Program    = sim.Program
	Control    = ctrl.Config
	Traffic    = sim.Traffic
	RunOptions = sim.RunOptions
)

// Scenario is one point of the evaluation grid: what to simulate
// (Topology), how payloads park (Parking), how the control plane drives
// the tables (Control), what load arrives (Traffic), what serves it
// (Server, Chain), and how to run it (Opts).
//
// A Scenario is JSON-serializable (the `ppbench -scenario file.json`
// front end round-trips it): the Topology sum type is encoded as a
// {"kind", "config"} envelope; hooks whose loss would change the run's
// results — Chain, Traffic.Source — are rejected by
// MarshalJSON rather than silently dropped.
type Scenario struct {
	// Name labels the run in reports.
	Name string `json:"name,omitempty"`
	// Topology selects the deployment shape. Required.
	Topology Topology `json:"topology"`
	// Parking is the PayloadPark policy (zero value = baseline).
	Parking Parking `json:"parking"`
	// Program loads declarative table programs — header compression, or
	// a custom serialized spec — alongside or instead of parking (zero
	// value = none).
	Program Program `json:"program"`
	// Control is the control-plane spec (zero value = static tables, no
	// controller).
	Control Control `json:"control"`
	// Traffic is the offered load.
	Traffic Traffic `json:"traffic"`
	// Server calibrates the NF server(s); the zero value uses
	// sim.DefaultServerModel.
	Server sim.ServerModel `json:"server"`
	// Chain builds a fresh NF chain per run (Testbed only; default
	// MAC swap). MultiServer and LeafSpine pin the paper's MAC-swap
	// chain. Not serializable.
	Chain func() *nf.Chain `json:"-"`
	// Observe arms the observability layer (zero value = off).
	Observe Observe `json:"observe"`
	// Opts are the execution knobs.
	Opts RunOptions `json:"opts"`
}

// Observe is the observability spec: whether a run carries a metrics
// registry (snapshotted into Report.Metrics) and/or a packet-lifecycle
// flight recorder (exported through Report.Trace). Both are off by
// default; the dataplane then pays at most one untaken branch per
// packet.
type Observe struct {
	// Metrics snapshots engine, link, switch, program and controller
	// metrics into Report.Metrics after the run.
	Metrics bool `json:"metrics,omitempty"`
	// Trace records packet-lifecycle events (inject, park, merge,
	// evict, drop, sink, controller decisions) keyed on sim time into
	// Report.Trace, in a ring of obs.DefaultEventCap events; Report.Trace
	// counts the events dropped when the ring wraps. Simulated topologies
	// only: the live fabric has no simulation clock to key on.
	Trace bool `json:"trace,omitempty"`
}

// sections gathers what every run reads besides its topology.
func (s *Scenario) sections() sim.Sections {
	return sim.Sections{
		Name: s.Name, Parking: s.Parking, Program: s.Program, Control: s.Control,
		Traffic: s.Traffic, Server: s.Server, Chain: s.Chain, Opts: s.Opts,
	}
}

// With returns a copy of the scenario with fn applied — the building
// block Axis setters use.
func (s Scenario) With(fn func(*Scenario)) Scenario {
	fn(&s)
	return s
}

// errf builds a package-prefixed error.
func errf(format string, args ...any) error {
	return fmt.Errorf("scenario: "+format, args...)
}
