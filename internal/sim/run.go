package sim

import (
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// simRun is a resolved Graph realised on the event engine and run to the
// end of its window: the one skeleton under RunTestbed, RunMultiServer and
// RunLeafSpine. Each runner describes its topology as a graph, hands it to
// realise with what only it knows — its link physics and source timing —
// and keeps what only it measures.
type simRun struct {
	*Fabric
	nodes []*SwitchNode // in graph order
	// programs holds, per node, the Program section's instances
	// Graph.Realise loaded, in attach order.
	programs [][]*prog.Instance
	cables   [][2]*Link // per graph cable: A->B, then B->A
	edges    []*edge    // per flow
	// fabricDrops counts in-window drops no edge owns: on cables and at
	// ingress ports fed by another switch.
	fabricDrops uint64
	ctl         *ctrl.Controller // nil unless the Control section is enabled
}

// wires is a run's link physics: the line rate of every NF link and fabric
// cable, and the loss rate striking both directions of each NF link. Every
// link propagates in simPropNs and buffers simQueueBytes.
type wires struct {
	linkBps  float64
	lossRate float64
}

// runSpec is what a runner adds to its graph.
type runSpec struct {
	wires
	stagger int64 // flow i's source starts at i*stagger ns
	// unshifted seeds every NF server with Opts.Seed itself (the testbed's
	// one server) instead of Seed + (i+1)<<40.
	unshifted bool
	sources   []trafficgen.Source // per flow; nil builds each flow's generator
	// realised runs once the switches are loaded, wired once every link
	// and edge exists; both may schedule the runner's own events.
	realised, wired func(*simRun)
}

// realise builds g on a new fabric — switches loaded by Graph.Realise, two
// links per cable, one edge per flow — arms observability and the
// controller, and runs until one warmup past the window. The order of
// every link and every ScheduleAt is fixed here: same-timestamp events run
// in scheduling order, so reordering them moves results.
func realise(g *Graph, s Sections, w Wiring, spec runSpec) (*simRun, error) {
	r := &simRun{Fabric: NewFabric()}
	r.eng.Cancel = w.Cancel
	for i, gs := range g.Switches {
		n := r.AddSwitch(gs.Name)
		n.WireParse = gs.WireParse
		insts, err := g.Realise(i, n.SW)
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, n)
		r.programs = append(r.programs, insts)
	}
	if spec.realised != nil {
		spec.realised(r)
	}

	// Packets that reach a terminal point (sink delivery, any drop, NF
	// consumption) go back to their generator: traffic generation
	// allocates nothing in steady state.
	sources, recycle := spec.sources, make([]func(*packet.Packet), len(g.Flows))
	if sources == nil {
		sources = make([]trafficgen.Source, len(g.Flows))
		for i := range sources {
			sources[i] = trafficgen.New(g.Flows[i].Traffic)
		}
	}
	for i, src := range sources {
		recycle[i] = func(*packet.Packet) {}
		if rec, ok := src.(interface{ Recycle(*packet.Packet) }); ok {
			recycle[i] = rec.Recycle
		}
	}
	// Mid-fabric the owning flow is unknown, so switch n charges flow
	// n mod flows's pool: generators fully rewrite reused packets, so pool
	// membership never shows up in results.
	dropFor := func(n int) func(Parcel, string) {
		rc := recycle[n%len(g.Flows)]
		return func(p Parcel, _ string) {
			if p.InWindow {
				r.fabricDrops++
			}
			rc(p.Pkt)
		}
	}
	ingress := func(at PortRef) func(Parcel) {
		rc := recycle[at.Switch%len(g.Flows)]
		return r.nodes[at.Switch].Ingress(at.Port, dropFor(at.Switch), func(p Parcel) { rc(p.Pkt) })
	}
	for _, c := range g.Cables {
		a, b := r.nodes[c.A.Switch], r.nodes[c.B.Switch]
		ab := r.NewLink(a.Name+"->"+b.Name, spec.linkBps, simPropNs, simQueueBytes, ingress(c.B), dropFor(c.A.Switch))
		a.SetOut(c.A.Port, ab)
		ba := r.NewLink(b.Name+"->"+a.Name, spec.linkBps, simPropNs, simQueueBytes, ingress(c.A), dropFor(c.A.Switch))
		b.SetOut(c.B.Port, ba)
		r.cables = append(r.cables, [2]*Link{ab, ba})
	}

	for i := range g.Flows {
		fl := &g.Flows[i]
		es := edgeSpec{
			flow:       fl,
			src:        edgeSide{node: r.nodes[fl.Gen.At.Switch], recycle: recycle[i]},
			nf:         edgeSide{node: r.nodes[fl.NF.At.Switch], recycle: recycle[i]},
			wires:      spec.wires,
			source:     sources[i],
			startAt:    int64(i) * spec.stagger,
			serverSeed: s.Opts.Seed + (int64(i)+1)<<40,
			sec:        s,
		}
		if spec.unshifted {
			es.serverSeed = s.Opts.Seed
		}
		// A single switch reports each flow's parking counters on its edge;
		// a fabric reports them per switch (SwitchReports).
		if len(g.Switches) == 1 && s.Parking.Enabled() {
			es.prog = r.nodes[0].SW.Programs()[i]
		}
		r.edges = append(r.edges, newEdge(r.Fabric, es))
	}
	if spec.wired != nil {
		spec.wired(r)
	}

	r.EnableObs(w.Obs)
	_, end := s.Opts.window()
	if s.Control.Enabled() {
		r.ctl = attachController(r.Fabric, s.Control, g, end+s.Opts.WarmupNs)
	}
	// Drain period after the window so in-flight packets can land.
	r.Run(end + s.Opts.WarmupNs)
	return r, nil
}

// control is the controller's report, nil when none ran.
func (r *simRun) control() *ctrl.Report {
	if r.ctl == nil {
		return nil
	}
	return r.ctl.Snapshot()
}
