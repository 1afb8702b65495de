package sim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Outcome is everything Run measures, the same way on any graph; a
// topology's View projects it into its report.
type Outcome struct {
	// Flows holds each flow's edge measurement under the flow's name: the
	// parking counters where one switch hosts every flow, PCIe where the
	// graph samples it.
	Flows          []Result
	PhaseDelivered [][]uint64 // per flow, its NF deliveries split at Graph.Phases
	Links          []LinkStats
	Switches       []SwitchStats
	Pipes          [][core.NumPipes]rmt.Usage // per switch, at the end of the run
	Programs       []ProgramCounters          // every Program-section instance, by (switch, program)
	Sent, Drops    uint64                     // fabric-wide in-window departures and unintended drops
	Control        *ctrl.Report               // nil when no controller ran
}

// GraphEvent is one change Run makes to the graph mid-run, at At: the link
// named LinkDown (a cable direction, "spine1->leaf2") goes down or, when
// LinkDown is empty, switch On's route to Dst moves to Port.
type GraphEvent struct {
	At       int64
	LinkDown string
	On       int
	Dst      packet.MAC
	Port     rmt.PortID
}

// Run is the event simulator's one runner. It realises g on a new fabric —
// switches loaded by Graph.Realise, two links per cable, one edge (edge.go)
// per flow — schedules g's events, arms observability and the controller,
// runs until one warmup past the window, and measures. s must be resolved
// (a topology's Resolve, or Sections.Resolve). The order of every link and
// every ScheduleAt is fixed here: same-timestamp events run in scheduling
// order, so reordering them moves results.
func Run(g *Graph, s Sections, w Wiring) (*Outcome, error) {
	f := NewFabric()
	f.eng.Cancel = w.Cancel
	start, end := s.Opts.window()
	var programs []func() ProgramCounters // per table program, its report
	for i, gs := range g.Switches {
		n := f.AddSwitch(gs.Name)
		n.WireParse = gs.WireParse
		insts, err := g.Realise(i, n.SW)
		if err != nil {
			return nil, err
		}
		name := gs.Name // programs are named by switch where there is more than one
		if len(g.Switches) == 1 {
			name = ""
		}
		for _, inst := range insts {
			var snap map[string]uint64
			f.eng.ScheduleAt(start, func() { snap = inst.Counters() })
			programs = append(programs, func() ProgramCounters { return programReport(name, inst, snap) })
		}
	}

	// Packets that reach a terminal point (sink delivery, any drop, NF
	// consumption) go back to their generator: traffic generation
	// allocates nothing in steady state.
	sources, recycle := make([]trafficgen.Source, len(g.Flows)), make([]func(*packet.Packet), len(g.Flows))
	for i := range sources {
		if s.Traffic.Source != nil {
			sources[i] = s.Traffic.Source()
		} else {
			sources[i] = trafficgen.New(g.Flows[i].Traffic)
		}
		recycle[i] = func(*packet.Packet) {}
		if rec, ok := sources[i].(interface{ Recycle(*packet.Packet) }); ok {
			recycle[i] = rec.Recycle
		}
	}
	// Mid-fabric the owning flow is unknown, so switch n charges flow
	// n mod flows's pool: generators fully rewrite reused packets, so pool
	// membership never shows up in results. In-window drops no edge owns —
	// on cables and at ingress ports fed by another switch — count
	// fabric-wide.
	var fabricDrops uint64
	dropFor := func(n int) func(Parcel, string) {
		rc := recycle[n%len(g.Flows)]
		return func(p Parcel, _ string) {
			if p.InWindow {
				fabricDrops++
			}
			rc(p.Pkt)
		}
	}
	ingress := func(at PortRef) func(Parcel) {
		rc := recycle[at.Switch%len(g.Flows)]
		return f.switches[at.Switch].Ingress(at.Port, dropFor(at.Switch), func(p Parcel) { rc(p.Pkt) })
	}
	for _, c := range g.Cables {
		a, b := f.switches[c.A.Switch], f.switches[c.B.Switch]
		a.SetOut(c.A.Port, f.NewLink(a.Name+"->"+b.Name, g.LinkBps, simPropNs, simQueueBytes, ingress(c.B), dropFor(c.A.Switch)))
		b.SetOut(c.B.Port, f.NewLink(b.Name+"->"+a.Name, g.LinkBps, simPropNs, simQueueBytes, ingress(c.A), dropFor(c.A.Switch)))
	}

	edges := make([]*edge, len(g.Flows))
	for i := range g.Flows {
		// A single switch reports each flow's parking counters on its edge;
		// a fabric reports them per switch (SwitchReports).
		var pp *core.Program
		if len(g.Switches) == 1 && s.Parking.Enabled() {
			pp = f.switches[0].SW.Programs()[i]
		}
		edges[i] = newEdge(f, g, &g.Flows[i], s, sources[i], recycle[i], pp)
	}

	for _, ev := range g.Events {
		if ev.LinkDown == "" {
			sw := f.switches[ev.On].SW
			f.eng.ScheduleAt(ev.At, func() { sw.AddL2Route(ev.Dst, ev.Port) })
		} else if k := slices.IndexFunc(f.links, func(l *Link) bool { return l.Name == ev.LinkDown }); k >= 0 {
			f.eng.ScheduleAt(ev.At, func() { f.links[k].Down = true })
		} else {
			return nil, fmt.Errorf("graph event at %d ns: no link %q", ev.At, ev.LinkDown)
		}
	}

	f.EnableObs(w.Obs)
	var ctl *ctrl.Controller
	if s.Control.Enabled() {
		ctl = attachController(f, s.Control, g, end+s.Opts.WarmupNs)
	}
	// Drain period after the window so in-flight packets can land.
	f.Run(end + s.Opts.WarmupNs)

	o := &Outcome{
		Links:    f.LinkReports(end + s.Opts.WarmupNs),
		Switches: f.SwitchReports(),
		Drops:    fabricDrops,
	}
	for i, e := range edges {
		r := e.measure()
		r.Name = g.Flows[i].Name
		o.Flows = append(o.Flows, r)
		o.PhaseDelivered = append(o.PhaseDelivered, e.phaseDelivered)
		o.Sent += e.sent
		o.Drops += e.src.drops + e.nf.drops
	}
	o.Pipes = make([][core.NumPipes]rmt.Usage, len(f.switches))
	for i, n := range f.switches {
		for p := range o.Pipes[i] {
			o.Pipes[i][p] = n.SW.Pipe(p).Resources()
		}
	}
	for _, report := range programs {
		o.Programs = append(o.Programs, report())
	}
	slices.SortStableFunc(o.Programs, func(a, b ProgramCounters) int { // whatever the attach order
		return cmp.Or(cmp.Compare(a.Switch, b.Switch), cmp.Compare(a.Program, b.Program))
	})
	if ctl != nil {
		o.Control = ctl.Snapshot()
	}
	return o, nil
}

// ProgramCounters is one attached program's report: the spec name, every
// named counter's in-window delta, and the end-of-run occupancy of its
// EXP/CLK state tables (parking slots plus compression contexts).
type ProgramCounters struct {
	// Switch names the hosting switch on multi-switch topologies ("" on
	// the testbed, which has one switch).
	Switch  string `json:"switch,omitempty"`
	Program string `json:"program"`
	// Counters holds the in-window delta of every counter the spec
	// declares, keyed by the spec's counter names.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Occupancy is the end-of-run occupied-cell count across the
	// program's meta state tables (orphan detection).
	Occupancy int `json:"occupancy"`
}

// programReport diffs one instance against its window-start snapshot.
// A nil snapshot (window never started) reports the cumulative values.
func programReport(swName string, inst *prog.Instance, snap map[string]uint64) ProgramCounters {
	pc := ProgramCounters{
		Switch:    swName,
		Program:   inst.Spec().Name,
		Counters:  inst.Counters(),
		Occupancy: inst.Occupied(prog.RoleMeta) + inst.Occupied(prog.RoleCompMeta),
	}
	for name, v := range pc.Counters { //pp:nondeterministic-ok order-insensitive update of a map in place
		pc.Counters[name] = v - snap[name]
	}
	return pc
}
