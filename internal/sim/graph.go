package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// One fabric graph, three backends. A Graph is the description of a
// deployment — switches with their L2 routes and program placements, the
// generator / NF server / sink endpoints of every flow, ECMP groups and
// named cables, plus the line rate, start offsets, server seeds and
// mid-run events a clock needs — built by graph builders, one per
// geometry (SingleSwitchGraph, LeafSpineGraph, and the topologies' Graph
// methods over them), and realised three ways: Run (run.go), the event
// simulator's one runner, adds queues and ServerSim stations to any graph
// and measures it the same way; internal/live adds UDP sockets and wire
// daemons; and Walker (NewInProcess too) carries frames through it with no
// clock at all. Ports, MACs, names, seeds and creation order live here and
// nowhere else; which sections a topology runs is its Validate's to say
// (sections.go).

// The one port table. A single switch hosts each generator / NF server /
// sink group on three consecutive ports from the group's base (the
// generator's port splits, the NF server's merges). A leaf uses pipe-0
// ports: traffic source, sink, local NF server, then one uplink per
// spine; spine port i faces leaf i. Both layouts fit one pipe.
const (
	groupGen  = rmt.PortID(0)
	groupNF   = rmt.PortID(1)
	groupSink = rmt.PortID(2)

	leafGen    = rmt.PortID(0)
	leafSink   = rmt.PortID(1)
	leafNF     = rmt.PortID(2)
	leafUplink = rmt.PortID(3)
)

// The unnumbered group's addresses: the paper's Fig. 5 testbed, where the
// generator's receive side is the sink.
var (
	MACGen  = packet.MAC{0x02, 0, 0, 0, 0, 0x01}
	MACNF   = packet.MAC{0x02, 0, 0, 0, 0, 0x02}
	MACSink = packet.MAC{0x02, 0, 0, 0, 0, 0x03}
)

// PortRef addresses one port of one of the graph's switches.
type PortRef struct {
	Switch int
	Port   rmt.PortID
}

// Endpoint is a traffic generator, NF server or sink on a switch port.
type Endpoint struct {
	Flow int // the flow it sources, serves or terminates
	Name string
	MAC  packet.MAC
	At   PortRef
	// ToSwitch and FromSwitch name the two directions of its cable ("" for
	// the direction the endpoint never uses).
	ToSwitch, FromSwitch string
}

// Flow is one generator -> NF server -> sink path and the traffic it
// carries, and when a clocked backend starts its generator and what seeds
// its NF server.
type Flow struct {
	Name          string
	Gen, NF, Sink Endpoint
	Traffic       trafficgen.Config
	StartNs       int64
	ServerSeed    int64
}

// Placement is one program on a switch: the port pair it splits and
// merges between, and whether it is transit parking — an every-hop
// striper the adaptive policy may demote — rather than a flow's ingress
// program.
type Placement struct {
	Split, Merge rmt.PortID
	Transit      bool
}

// GraphSwitch is one switch: its static L2 table and, in attach order,
// where the parking program (Park) and the Program section's table
// program (Spec) load. WireParse marks byte-accurate ingress (§7
// striping: a downstream program sees the upstream header as payload).
type GraphSwitch struct {
	Name       string
	Routes     map[packet.MAC]rmt.PortID
	Park, Spec []Placement
	WireParse  bool
}

// Cable joins two switch ports. Its directions are named after the
// switches, "leaf0->spine1" and back.
type Cable struct{ A, B PortRef }

// ECMPGroup is a hash-group route on switch On: flows to Dst spread over
// Ports (member name -> egress port), overriding the static route.
type ECMPGroup struct {
	ctrl.Group
	On    int
	Dst   packet.MAC
	Ports map[string]rmt.PortID
}

// Graph is one deployment. Parking and Program are what a Park and a Spec
// placement install. The exported fields after Groups are read by the
// event simulator alone (Run), and set by the topologies' Graph methods.
type Graph struct {
	Parking  Parking
	Program  Program
	Switches []GraphSwitch
	Cables   []Cable
	Flows    []Flow
	Groups   []ECMPGroup

	// LinkBps is the line rate of every NF link and cable, NFLossRate the
	// loss on both directions of every NF link. SamplePCIe meters the NF
	// servers' PCIe traffic. Events change the graph mid-run, in order;
	// Phases split each flow's NF deliveries (Outcome.PhaseDelivered).
	LinkBps, NFLossRate float64
	SamplePCIe          bool
	Events              []GraphEvent
	Phases              []int64

	// compiled is compile's: Realise a graph from one goroutine, and leave
	// its Program section as first realised.
	compiled map[any]*prog.Compiled
}

// traffic is flow i's generator configuration: the one place a run's
// Traffic section, seed and addresses meet.
func (s Sections) traffic(src, dst packet.MAC, dstIP packet.IPv4Addr, i int) trafficgen.Config {
	return trafficgen.Config{
		Sizes: s.Traffic.Dist, Flows: s.Traffic.Flows,
		SrcMAC: src, DstMAC: dst, DstIP: dstIP, DstPort: 80, Seed: s.Opts.Seed + int64(i),
	}
}

// SingleSwitchGraph is one switch serving a generator / NF server / sink
// group at each base port: the Fig. 5 testbed is one unnumbered group at
// port 0, the §6.2.3 multi-server deployment two numbered groups per
// pipe, the live chain one numbered group per pipe. Every group parks
// between its own generator and NF ports. The unnumbered group's server is
// seeded with Opts.Seed itself.
func SingleSwitchGraph(name string, s Sections, bases []rmt.PortID, numbered bool) *Graph {
	g := &Graph{Parking: s.Parking, Program: s.Program}
	sw := GraphSwitch{Name: name, Routes: make(map[packet.MAC]rmt.PortID)}
	for i, base := range bases {
		gen, nfm, sink, tag, seed := MACGen, MACNF, MACSink, "", s.Opts.Seed
		if numbered {
			gen, nfm, sink = packet.MAC{0x02, 0x10, 0, 0, 0, byte(i)}, packet.MAC{0x02, 0x20, 0, 0, 0, byte(i)}, packet.MAC{0x02, 0x30, 0, 0, 0, byte(i)}
			tag, seed = fmt.Sprintf("[%d]", i+1), s.Opts.Seed+(int64(i)+1)<<40
		}
		sw.Routes[nfm] = base + groupNF
		sw.Routes[sink] = base + groupSink
		sw.Routes[gen] = base + groupSink // MAC-swap chains return toward the generator
		pl := Placement{Split: base + groupGen, Merge: base + groupNF}
		if s.Program.Enabled() {
			sw.Spec = append(sw.Spec, pl)
		}
		if s.Parking.Enabled() {
			sw.Park = append(sw.Park, pl)
		}
		g.Flows = append(g.Flows, Flow{
			Name:       fmt.Sprintf("server-%d", i+1),
			Gen:        Endpoint{i, "gen" + tag, gen, PortRef{0, base + groupGen}, "gen->switch" + tag, ""},
			NF:         Endpoint{i, "nf" + tag, nfm, PortRef{0, base + groupNF}, "nf->switch" + tag, "switch->nf" + tag},
			Sink:       Endpoint{i, "sink" + tag, sink, PortRef{0, base + groupSink}, "", "switch->sink" + tag},
			Traffic:    s.traffic(gen, nfm, packet.IPv4Addr{10, 1, byte(i), 9}, i),
			StartNs:    int64(i) * 97, // desynchronize the groups slightly
			ServerSeed: seed,
		})
	}
	g.Switches = []GraphSwitch{sw}
	return g
}

// Graph is the Fig. 5 testbed: one unnumbered group at port 0, a lossy NF
// link when asked, and PCIe sampled at the server.
func (t Testbed) Graph(s Sections) *Graph {
	g := SingleSwitchGraph(s.Name, s, []rmt.PortID{0}, false)
	g.LinkBps, g.NFLossRate, g.SamplePCIe = t.LinkBps, t.NFLinkLossRate, true
	return g
}

// Graph is the §6.2.3 deployment: server i lives on pipe i/2, the second
// server of a pipe on the upper port block.
func (m MultiServer) Graph(s Sections) *Graph {
	bases := make([]rmt.PortID, m.Servers)
	for i := range bases {
		bases[i] = rmt.PortID(core.PortsPerPipe*(i/2) + 8*(i%2))
	}
	g := SingleSwitchGraph("multiserver", s, bases, true)
	g.LinkBps = m.LinkBps
	return g
}

// Graph is the leaf-spine fabric and, with FailLink, its failure as graph
// events on flow 0's forward path as the graph routes it: the link from
// the spine behind leaf 0's uplink down to the egress leaf goes down at
// FailAtNs, and RerouteNs later the route moves to an alternate spine —
// or, with ECMP, the controller's next tick shrinks the group instead.
// Deliveries are split before the failure, during the outage and after.
func (l LeafSpine) Graph(s Sections) *Graph {
	g := LeafSpineGraph(l.Leaves, l.Spines, s)
	g.LinkBps = l.LinkBps
	if !l.FailLink {
		return g
	}
	fl := &g.Flows[0]
	egress, fwd := fl.NF.At.Switch, g.Switches[0].Routes[fl.NF.MAC]
	spine := g.Peers()[0][fwd].Far.Switch
	g.Phases = []int64{l.FailAtNs, l.FailAtNs + l.RerouteNs}
	g.Events = []GraphEvent{{At: l.FailAtNs, LinkDown: g.Switches[spine].Name + "->" + g.Switches[egress].Name}}
	if s.Control.ECMP {
		return g
	}
	// With parking on, the alternate avoids the dead spine and the spine
	// arriving on the egress leaf's merge port (leaves number uplinks
	// alike); parked state survives, as the merge port pins the return path.
	next := func(p rmt.PortID) rmt.PortID { return leafUplink + (p-leafUplink+1)%rmt.PortID(l.Spines) }
	alt := next(fwd)
	if s.Parking.Enabled() {
		for alt == fwd || alt == g.Switches[egress].Park[0].Merge {
			alt = next(alt)
		}
	}
	g.Events = append(g.Events, GraphEvent{At: l.FailAtNs + l.RerouteNs, On: 0, Dst: fl.NF.MAC, Port: alt})
	return g
}

// ServerConfig is the NF framework hosting the sections' chain (nil: the
// MAC swap) at the far end of flow fl, behind the parking program's
// decoupling boundary. A chain whose last stage swaps MACs — MACSwap, or a
// Synthetic (a MAC swap with a busy loop) — already sends the packet back
// toward its source, so the framework must not rewrite MACs. Explicit
// drops need a parking program to notify.
func (s Sections) ServerConfig(fl *Flow) nf.ServerConfig {
	chain := nf.NewChain(nf.MACSwap{})
	if s.Chain != nil {
		chain = s.Chain()
	}
	var swaps bool
	switch chain.Last().(type) {
	case nf.MACSwap, *nf.Synthetic:
		swaps = true
	}
	return nf.ServerConfig{
		Chain: chain, RewriteMACs: !swaps,
		NFMAC: fl.NF.MAC, NextHopMAC: fl.Sink.MAC,
		ExplicitDrop: s.Parking.ExplicitDrop && s.Parking.Enabled(),
		Boundary:     s.Parking.BoundaryOffset,
	}
}

// LeafSpineGraph is L leaves and S spines. Every leaf hosts a traffic
// source, a sink and an NF server; flow i enters at leaf i, is served by
// the NF at leaf (i+1) mod L and crosses spine i mod S in both directions
// (which is what pins the merge port). Parking follows s.Parking.Mode —
// ingress leaf only, or striped over ingress leaf, spine and egress leaf —
// Program Kind "compress" loads at every ingress leaf on ParkEdge's port
// pair, and Control.ECMP overlays each forward route with a hash group
// over the parking-safe spines. CheckLeafSpine holds the geometry rules.
func LeafSpineGraph(L, S int, s Sections) *Graph {
	mode, compress := s.Parking.Mode, s.Program.Kind == "compress"
	g := &Graph{Parking: s.Parking, Program: s.Program, Switches: make([]GraphSwitch, L+S)}
	uplink := func(flow int) rmt.PortID { return leafUplink + rmt.PortID(flow%S) }
	genMAC := func(i int) packet.MAC { return packet.MAC{0x02, 0x40, 0, 0, 0, byte(i)} }
	nfMAC := func(i int) packet.MAC { return packet.MAC{0x02, 0x50, 0, 0, 0, byte(i)} }

	// Leaves, then spines, so reports read in that order. Static routes:
	// flow i runs leaf i -> spine i%S -> leaf (i+1)%L -> NF and the exact
	// reverse for the returning headers.
	for i := 0; i < L; i++ {
		leaf := &g.Switches[i]
		leaf.Name, leaf.Routes = fmt.Sprintf("leaf%d", i), make(map[packet.MAC]rmt.PortID)
		for k := 0; k < L; k++ {
			if k == i {
				// NF k hangs off this leaf; merged headers for source k
				// leave toward its sink.
				leaf.Routes[nfMAC(k)], leaf.Routes[genMAC(k)] = leafNF, leafSink
				continue
			}
			leaf.Routes[nfMAC(k)] = uplink((k - 1 + L) % L) // the flow sourced at leaf k-1 owns the path
			leaf.Routes[genMAC(k)] = uplink(k)              // the return path of flow k
		}
	}
	for sp := 0; sp < S; sp++ {
		spine := &g.Switches[L+sp]
		spine.Name, spine.Routes = fmt.Sprintf("spine%d", sp), make(map[packet.MAC]rmt.PortID)
		for k := 0; k < L; k++ {
			spine.Routes[nfMAC(k)], spine.Routes[genMAC(k)] = rmt.PortID(k), rmt.PortID(k)
		}
	}

	// Ingress-leaf programs: split (or compress) what the source sends,
	// merge (restore) what returns from the flow's spine.
	for i := 0; i < L; i++ {
		pl := Placement{Split: leafGen, Merge: uplink(i)}
		if mode != ParkNone {
			g.Switches[i].Park = append(g.Switches[i].Park, pl)
		}
		if compress {
			g.Switches[i].Spec = append(g.Switches[i].Spec, pl)
		}
	}
	if mode == ParkEveryHop {
		// Striping parks again at the spine and at the egress leaf; each
		// downstream program sees the upstream header as payload, which
		// requires byte-accurate hops.
		for i := range g.Switches {
			g.Switches[i].WireParse = true
		}
		for i := 0; i < L; i++ {
			j, spine := (i+1)%L, &g.Switches[L+i%S]
			spine.Park = append(spine.Park, Placement{Split: rmt.PortID(i), Merge: rmt.PortID(j), Transit: true})
			g.Switches[j].Park = append(g.Switches[j].Park, Placement{Split: uplink(i), Merge: leafNF, Transit: true})
		}
	}

	// Cables both ways between every leaf and every spine.
	for i := 0; i < L; i++ {
		for sp := 0; sp < S; sp++ {
			g.Cables = append(g.Cables, Cable{PortRef{i, leafUplink + rmt.PortID(sp)}, PortRef{L + sp, rmt.PortID(i)}})
		}
	}

	for i := 0; i < L; i++ {
		j := (i + 1) % L
		g.Flows = append(g.Flows, Flow{
			Name:       fmt.Sprintf("leaf%d->nf%d", i, j),
			Gen:        Endpoint{i, fmt.Sprintf("gen%d", i), genMAC(i), PortRef{i, leafGen}, fmt.Sprintf("gen%d->leaf%d", i, i), ""},
			NF:         Endpoint{i, fmt.Sprintf("nf%d", j), nfMAC(j), PortRef{j, leafNF}, fmt.Sprintf("nf%d->leaf%d", j, j), fmt.Sprintf("leaf%d->nf%d", j, j)},
			Sink:       Endpoint{i, fmt.Sprintf("sink%d", i), genMAC(i), PortRef{i, leafSink}, "", fmt.Sprintf("leaf%d->sink%d", i, i)},
			Traffic:    s.traffic(genMAC(i), nfMAC(j), packet.IPv4Addr{10, 2, byte(i), 9}, i),
			StartNs:    int64(i) * 131,
			ServerSeed: s.Opts.Seed + (int64(i)+1)<<40,
		})
		if !s.Control.ECMP {
			continue
		}
		eg := ECMPGroup{On: i, Dst: nfMAC(j), Ports: make(map[string]rmt.PortID, S)}
		eg.Name, eg.Switch = g.Flows[i].Name, g.Switches[i].Name
		for sp := 0; sp < S; sp++ {
			if (mode != ParkNone || compress) && sp == j%S {
				// A slim (or compressed) flow arriving at the egress leaf
				// on this spine's port would hit that leaf's merge/restore
				// port.
				continue
			}
			name := fmt.Sprintf("spine%d", sp)
			eg.Ports[name] = leafUplink + rmt.PortID(sp)
			eg.Members = append(eg.Members, ctrl.Member{Name: name, Links: []string{
				fmt.Sprintf("leaf%d->spine%d", i, sp), fmt.Sprintf("spine%d->leaf%d", sp, j),
			}})
		}
		g.Groups = append(g.Groups, eg)
	}
	return g
}

// Realise installs graph switch i — routes, parking programs, the
// section's table program, ECMP groups — on sw, and returns the table
// program's instances in attach order (the switch lists only its typed
// parking Programs). It is the only place a backend loads a switch.
func (g *Graph) Realise(i int, sw *core.Switch) ([]*prog.Instance, error) {
	gs := &g.Switches[i]
	for mac, port := range gs.Routes { //pp:nondeterministic-ok order-insensitive copy into the switch's L2 map
		sw.AddL2Route(mac, port)
	}
	recirc := -1 // a recirculating program borrows the pipe after its own
	for _, pl := range gs.Park {
		if g.Parking.Recirculate {
			recirc = (core.PipeOfPort(pl.Split) + 1) % core.NumPipes
		}
		cfg := g.Parking.Core(pl.Split, pl.Merge)
		c, err := g.compile(cfg, func() (*prog.Compiled, error) { return core.CompilePark(cfg) })
		if err == nil {
			_, err = sw.AttachPark(c, cfg, recirc)
		}
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", gs.Name, err)
		}
	}
	var insts []*prog.Instance
	for _, pl := range gs.Spec {
		c, err := g.compile(pl, func() (*prog.Compiled, error) { return prog.Compile(programSpec(g.Program, pl.Split, pl.Merge)) })
		var inst *prog.Instance
		if err == nil {
			inst, err = sw.AttachSpec(c, nil, -1)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: attach program: %w", gs.Name, err)
		}
		insts = append(insts, inst)
	}
	for _, eg := range g.Groups {
		if eg.On != i {
			continue
		}
		if err := sw.SetECMPRoute(eg.Dst, eg.Ports); err != nil {
			return nil, fmt.Errorf("ECMP group %s: %w", eg.Name, err)
		}
	}
	return insts, nil
}

// compile returns the program build compiles for key — a parking Config,
// or a Placement of the Program section's — calling build on the graph's
// first use of key alone: however many switches install a program, it is
// compiled once per graph.
func (g *Graph) compile(key any, build func() (*prog.Compiled, error)) (*prog.Compiled, error) {
	if c := g.compiled[key]; c != nil {
		return c, nil
	}
	c, err := build()
	if err == nil {
		if g.compiled == nil {
			g.compiled = make(map[any]*prog.Compiled)
		}
		g.compiled[key] = c
	}
	return c, err
}

// RealiseAll builds every switch of the graph, in graph order, dropping
// the table program instances Realise returns.
func (g *Graph) RealiseAll() ([]*core.Switch, error) {
	sws := make([]*core.Switch, len(g.Switches))
	for i := range sws {
		sws[i] = core.NewSwitch(g.Switches[i].Name)
		if _, err := g.Realise(i, sws[i]); err != nil {
			return nil, err
		}
	}
	return sws, nil
}

// Peer is what a switch port connects to: an endpoint, or the far port of a
// switch-to-switch cable. The zero Peer is an uncabled port.
type Peer struct {
	Cabled bool
	End    *Endpoint
	Far    PortRef
}

// Peers is the cabling seen from the switch ports: per switch, the peer of
// every port.
func (g *Graph) Peers() [][core.NumPorts]Peer {
	peers := make([][core.NumPorts]Peer, len(g.Switches))
	for _, c := range g.Cables {
		peers[c.A.Switch][c.A.Port] = Peer{Cabled: true, Far: c.B}
		peers[c.B.Switch][c.B.Port] = Peer{Cabled: true, Far: c.A}
	}
	for i := range g.Flows {
		fl := &g.Flows[i]
		for _, ep := range []*Endpoint{&fl.Gen, &fl.NF, &fl.Sink} {
			peers[ep.At.Switch][ep.At.Port] = Peer{Cabled: true, End: ep}
		}
	}
	return peers
}

// maxHops bounds one frame's walk; the longest legitimate path (leaf-spine
// with the NF return) is 7 segments.
const maxHops = 16

// Walker is the reference backend: the graph's switches with no clock and
// no sockets. Send carries one frame at a time from a generator to its
// fate, depth-first — the operation order a below-saturation simulation
// reduces to, and whose counters a live run windowed within its tables'
// slots reaches in any interleaving.
type Walker struct {
	g      *Graph
	peers  [][core.NumPorts]Peer
	bursts []*core.FrameBurst // one one-slot burst per switch
	out    []byte
}

// NewWalker walks g over its realised switches sws.
func NewWalker(g *Graph, sws []*core.Switch) *Walker {
	w := &Walker{g: g, peers: g.Peers(), bursts: make([]*core.FrameBurst, len(sws))}
	for i, sw := range sws {
		w.bursts[i] = sw.NewFrameBurst(1)
	}
	return w
}

// Send walks frame from flow's generator. serve is the NF server: it gets
// the frame that reached ep and returns the frame the server sends back
// (nil: it kept the packet). Send returns what the sink received — valid
// until the next Send — or nil when the frame ended anywhere else; a frame
// a switch cannot parse, or an uncabled egress port, is an error.
func (w *Walker) Send(flow int, frame []byte, serve func(ep *Endpoint, frame []byte) []byte) ([]byte, error) {
	at := w.g.Flows[flow].Gen.At
	for hop := 0; hop < maxHops; hop++ {
		fb := w.bursts[at.Switch]
		fb.Reset()
		if err := fb.Add(frame, at.Port); err != nil {
			return nil, err // malformed: the switch counted the parse error
		}
		r := &fb.Run()[0]
		if !r.OK {
			return nil, nil // consumed or dropped at the switch
		}
		w.out = r.Em.Pkt.AppendSerialize(w.out[:0])
		switch peer := w.peers[at.Switch][r.Em.Port]; {
		case !peer.Cabled:
			return nil, fmt.Errorf("reference: %s egress port %d is not cabled", w.g.Switches[at.Switch].Name, r.Em.Port)
		case peer.End == nil:
			frame, at = w.out, peer.Far // Add copies it into the slot before out is rewritten
		case peer.End == &w.g.Flows[peer.End.Flow].NF:
			if frame = serve(peer.End, w.out); frame == nil {
				return nil, nil
			}
			at = peer.End.At
		default:
			return w.out, nil
		}
	}
	return nil, fmt.Errorf("reference: flow %d still forwarding after %d hops (routing loop)", flow, maxHops)
}
