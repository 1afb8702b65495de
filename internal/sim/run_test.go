package sim

import (
	"fmt"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// A topology is what each of the three kinds gives Run: its defaults, its
// rules and its graph.
type topology interface {
	Resolve(*Sections)
	Validate(Sections) error
	Graph(Sections) *Graph
}

// runTopology resolves s for t in place, validates it and runs t's graph.
func runTopology(t topology, s *Sections, w Wiring) (*Outcome, error) {
	t.Resolve(s)
	if err := t.Validate(*s); err != nil {
		return nil, err
	}
	return Run(t.Graph(*s), *s, w)
}

// Tests build one description, tweak a field and run it, so these bundles
// group a topology with its sections and wiring — by embedding, not by
// restating a field — and fail the test on a rejected description.

type testbedRun struct {
	Testbed
	Sections
	Wiring
}

func (r testbedRun) run(t testing.TB) Result {
	t.Helper()
	o, err := runTopology(&r.Testbed, &r.Sections, r.Wiring)
	if err != nil {
		t.Fatal(err)
	}
	return r.Testbed.View(r.Sections, o)
}

type multiServerRun struct {
	MultiServer
	Sections
	Wiring
}

func (r multiServerRun) run(t testing.TB) MultiServerResult {
	t.Helper()
	o, err := runTopology(&r.MultiServer, &r.Sections, r.Wiring)
	if err != nil {
		t.Fatal(err)
	}
	return r.MultiServer.View(r.Sections, o)
}

type leafSpineRun struct {
	LeafSpine
	Sections
	Wiring
}

// run runs the fabric: a controller ticks iff Control is enabled.
func (r leafSpineRun) run(t testing.TB) FabricResult {
	t.Helper()
	o, err := runTopology(&r.LeafSpine, &r.Sections, r.Wiring)
	if err != nil {
		t.Fatal(err)
	}
	return r.LeafSpine.View(r.Sections, o)
}

// fabricRun spells a leaf-spine description the way the fabric tests
// vary it: geometry (and failure scenario), parking mode, offered load
// per source, and the seed/window options.
func fabricRun(l LeafSpine, mode ParkMode, sendBps float64, o RunOptions) leafSpineRun {
	return leafSpineRun{LeafSpine: l, Sections: Sections{
		Parking: Parking{Mode: mode},
		Traffic: Traffic{SendBps: sendBps},
		Opts:    o,
	}}
}

// chainGraph is a graph none of the topologies builds: two switches in a
// chain, cabled twice, each with a generator, a sink and an NF server
// behind it. Flow i enters at switch i and is served behind the other one;
// it crosses forward on the first cable and comes back on the second, so
// each switch parks what its generator sends and merges on a port no
// forward traffic enters by.
func chainGraph(s Sections) *Graph {
	gen := func(i int) packet.MAC { return packet.MAC{0x02, 0x60, 0, 0, 0, byte(i)} }
	nfm := func(i int) packet.MAC { return packet.MAC{0x02, 0x70, 0, 0, 0, byte(i)} }
	const portGen, portSink, portNF, fwd, back = 0, 1, 2, 3, 4
	g := &Graph{Parking: s.Parking, LinkBps: 10e9, Cables: []Cable{
		{PortRef{0, fwd}, PortRef{1, fwd}},
		{PortRef{0, back}, PortRef{1, back}},
	}}
	for i := 0; i < 2; i++ {
		j := 1 - i
		g.Switches = append(g.Switches, GraphSwitch{
			Name: fmt.Sprintf("sw%d", i),
			Routes: map[packet.MAC]rmt.PortID{
				nfm(j): fwd, gen(i): portSink, // flow i out and home
				nfm(i): portNF, gen(j): back, // flow j served here and sent back
			},
			Park: []Placement{{Split: portGen, Merge: back}},
		})
		g.Flows = append(g.Flows, Flow{
			Name:       fmt.Sprintf("sw%d->nf%d", i, j),
			Gen:        Endpoint{i, fmt.Sprintf("gen%d", i), gen(i), PortRef{i, portGen}, fmt.Sprintf("gen%d->sw%d", i, i), ""},
			NF:         Endpoint{i, fmt.Sprintf("nf%d", j), nfm(j), PortRef{j, portNF}, fmt.Sprintf("nf%d->sw%d", j, j), fmt.Sprintf("sw%d->nf%d", j, j)},
			Sink:       Endpoint{i, fmt.Sprintf("sink%d", i), gen(i), PortRef{i, portSink}, "", fmt.Sprintf("sw%d->sink%d", i, i)},
			Traffic:    s.traffic(gen(i), nfm(j), packet.IPv4Addr{10, 3, byte(i), 9}, i),
			StartNs:    int64(i) * 101,
			ServerSeed: s.Opts.Seed + int64(i),
		})
	}
	return g
}

// TestRunAnyGraph: Run takes any graph, not just the three topologies'.
// On the two-switch chain below saturation every frame a generator sends
// reaches its NF, comes back and lands at its sink — the run drains, so
// the counts are exact — and every switch's parked slots add up.
func TestRunAnyGraph(t *testing.T) {
	s := Sections{Parking: Parking{Mode: ParkEdge}, Traffic: Traffic{SendBps: 3e9},
		Opts: RunOptions{Seed: 4, WarmupNs: 1e6, MeasureNs: 4e6}}
	s.Resolve(simSlots, trafficgen.Datacenter{}, 1024)
	g := chainGraph(s)
	o, err := Run(g, s, Wiring{})
	if err != nil {
		t.Fatal(err)
	}
	tx := make(map[string]uint64)
	for _, l := range o.Links {
		tx[l.Name] += l.TxPackets // both cables name their directions alike
		if l.Drops+l.Lost > 0 {
			t.Errorf("%s dropped %d and lost %d below saturation", l.Name, l.Drops, l.Lost)
		}
	}
	var sent uint64
	for i := range g.Flows {
		fl := &g.Flows[i]
		n := tx[fl.Gen.ToSwitch]
		if n == 0 || o.Flows[i].Delivered == 0 {
			t.Fatalf("%s: sent %d, delivered %d in-window; want traffic", fl.Name, n, o.Flows[i].Delivered)
		}
		for _, name := range []string{fl.NF.FromSwitch, fl.NF.ToSwitch, fl.Sink.FromSwitch} {
			if tx[name] != n {
				t.Errorf("%s: %s carried %d frames, the generator sent %d", fl.Name, name, tx[name], n)
			}
		}
		sent += n
	}
	// Each direction of the chain carries one flow out and the other back.
	if tx["sw0->sw1"] != sent || tx["sw1->sw0"] != sent {
		t.Errorf("cables carried %d and %d frames, want %d each way", tx["sw0->sw1"], tx["sw1->sw0"], sent)
	}
	if o.Drops != 0 {
		t.Errorf("%d unintended drops below saturation", o.Drops)
	}
	assertFabricInvariants(t, o.Switches)
	for _, sw := range o.Switches {
		if sw.Splits == 0 || sw.Merges != sw.Splits {
			t.Errorf("%s: %d splits, %d merges; want every parked payload merged", sw.Name, sw.Splits, sw.Merges)
		}
	}
}
