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

// ParkMode selects where a leaf-spine fabric parks payloads.
type ParkMode uint8

const (
	// ParkNone runs the fabric as plain L2 switches (baseline).
	ParkNone ParkMode = iota
	// ParkEdge parks at the ingress leaf only: slim packets cross every
	// fabric hop and the payload is restored when the headers return to
	// the ingress leaf, just before leaving the programmable domain.
	ParkEdge
	// ParkEveryHop stripes the payload across the path (§7): the ingress
	// leaf, the spine, and the egress leaf each park a block, each
	// treating the upstream PayloadPark header as opaque payload. The
	// NF-facing link carries the least bytes; memory pressure spreads
	// over three switches.
	ParkEveryHop
)

// String names the mode in reports.
func (m ParkMode) String() string {
	switch m {
	case ParkEdge:
		return "edge"
	case ParkEveryHop:
		return "everyhop"
	default:
		return "baseline"
	}
}

// MarshalJSON encodes the mode by name, so serialized scenarios read
// "edge" rather than a bare enum ordinal.
func (m ParkMode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON accepts the mode names String produces.
func (m *ParkMode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"baseline"`, `""`:
		*m = ParkNone
	case `"edge"`:
		*m = ParkEdge
	case `"everyhop"`:
		*m = ParkEveryHop
	default:
		return fmt.Errorf("sim: unknown park mode %s (want \"baseline\", \"edge\", or \"everyhop\")", b)
	}
	return nil
}

// Leaf-spine port layout. Leaves use pipe-0 ports: 0 = traffic source,
// 1 = sink, 2 = local NF server, 3+s = spine s. Spines use port i for
// leaf i. Both layouts must fit one pipe (16 ports).
const (
	leafPortGen   = rmt.PortID(0)
	leafPortSink  = rmt.PortID(1)
	leafPortNF    = rmt.PortID(2)
	leafPortSpine = rmt.PortID(3)
)

// FlowResult reports one source->NF->sink flow across the fabric.
type FlowResult struct {
	// Name is "leaf<i>->nf<j>".
	Name string `json:"name"`
	// SendGbps is the offered load measured at the source.
	SendGbps float64 `json:"send_gbps"`
	// GoodputGbps is the paper's header-unit goodput measured at delivery
	// over the egress-leaf->NF link (42 B per delivered packet).
	GoodputGbps float64 `json:"goodput_gbps"`
	// ToNFGbps / ToNFMpps describe that link's actual traffic.
	ToNFGbps float64 `json:"to_nf_gbps"`
	ToNFMpps float64 `json:"to_nf_mpps"`
	// Latency of packets delivered to the sink, microseconds.
	AvgLatencyUs float64 `json:"avg_latency_us"`
	MaxLatencyUs float64 `json:"max_latency_us"`
	// Delivered counts packets reaching the sink in-window.
	Delivered uint64 `json:"delivered"`
}

// FabricResult is the outcome of one leaf-spine run: per-flow end-to-end
// metrics plus the per-hop link and switch reports.
type FabricResult struct {
	Mode  string       `json:"mode"`
	Flows []FlowResult `json:"flows"`
	// Links and Switches are the per-hop reports, in wiring order.
	Links    []LinkStats   `json:"links"`
	Switches []SwitchStats `json:"switches"`
	// Programs reports each declaratively attached table program's
	// in-window counter deltas (compression; empty unless
	// Sections.Program ran).
	Programs []ProgramCounters `json:"programs,omitempty"`
	// Aggregates over all flows.
	SendGbps     float64 `json:"send_gbps"`
	GoodputGbps  float64 `json:"goodput_gbps"`
	AvgLatencyUs float64 `json:"avg_latency_us"`
	// UnintendedDropRate is fabric-wide: every queue/ring/link/eviction
	// drop of an in-window packet, anywhere on any path, over packets
	// offered in-window.
	SentWindow         uint64  `json:"sent_window"`
	UnintendedDrops    uint64  `json:"unintended_drops"`
	UnintendedDropRate float64 `json:"unintended_drop_rate"`
	Healthy            bool    `json:"healthy"`
	// PhaseDelivered counts flow 0's NF deliveries before the failure,
	// during the outage, and after the reroute (all zero when the
	// failure scenario is off).
	PhaseDelivered [3]uint64 `json:"phase_delivered"`
	// Control is the control-plane report — tick counts and the decision
	// timeline — when a controller ran (nil otherwise).
	Control *ctrl.Report `json:"control,omitempty"`
}

// spineOf returns the spine affinity of flow i (used for both the
// forward and the return path, which is what pins the merge port).
func (l *LeafSpine) spineOf(i int) int { return i % l.Spines }

func leafSpineMACs(i int) (gen, nfm packet.MAC) {
	return packet.MAC{0x02, 0x40, 0, 0, 0, byte(i)}, packet.MAC{0x02, 0x50, 0, 0, 0, byte(i)}
}

// RunLeafSpine simulates a leaf-spine fabric: every leaf hosts a traffic
// source, a sink, and an NF server running a MAC-swap chain; flow i
// enters at leaf i and is served by the NF at leaf (i+1) mod Leaves,
// crossing spine i mod Spines in both directions; static route tables
// (each switch's L2 table) map every flow to its port path. Parking
// follows s.Parking.Mode; s.Program Kind "compress" loads the compression
// program at every ingress leaf, mirroring ParkEdge's port layout;
// s.Control.ECMP overlays the forward routes with hash groups, and an
// enabled s.Control runs the fabric-wide controller (see ctrl.Config),
// whose decision timeline lands in FabricResult.Control. The sections
// are resolved and validated first: a description the fabric cannot run
// is an error, never a panic.
func RunLeafSpine(l LeafSpine, sec Sections, w Wiring) (FabricResult, error) {
	l.Resolve(&sec)
	if err := l.Validate(sec); err != nil {
		return FabricResult{}, err
	}
	L, S := l.Leaves, l.Spines
	mode, ecmp, compress := sec.Parking.Mode, sec.Control.ECMP, sec.Program.Kind == "compress"
	controlled := sec.Control.Enabled() // ECMP groups always run under a controller

	// Partition placement: greedy min-cut over the switch graph (leaves
	// 0..L-1 then spines L..L+S-1, matching report order); every leaf's
	// source, sink, and NF server follow their leaf. The controller reads
	// and writes fabric-wide state mid-run, so it forces a serial run.
	P := sec.Opts.Partitions
	if P < 1 || controlled {
		P = 1
	}
	if P > L+S {
		P = L + S
	}
	adj := make([][]int, L+S)
	for i := 0; i < L; i++ {
		for s := 0; s < S; s++ {
			adj[i] = append(adj[i], L+s)
			adj[L+s] = append(adj[L+s], i)
		}
	}
	part := greedyPartition(adj, P)

	f := NewFabric()
	f.SetPartitions(P)
	for p := 0; p < P; p++ {
		f.PartitionEngine(p).Cancel = w.Cancel
	}
	windowStart, windowEnd := sec.Opts.window()

	// Nodes first: leaves, then spines, so reports read in that order.
	leaves := make([]*SwitchNode, L)
	for i := range leaves {
		leaves[i] = f.AddSwitchAt(fmt.Sprintf("leaf%d", i), part[i])
	}
	spines := make([]*SwitchNode, S)
	for s := range spines {
		spines[s] = f.AddSwitchAt(fmt.Sprintf("spine%d", s), part[L+s])
	}

	// Static routes. Flow i: leaf i -> spine i%S -> leaf (i+1)%L -> NF,
	// and the exact reverse for the returning headers.
	for i := 0; i < L; i++ {
		for k := 0; k < L; k++ {
			genK, nfK := leafSpineMACs(k)
			if k == i {
				// NF k hangs off this leaf; merged headers for source k
				// leave toward its sink.
				leaves[i].SW.AddL2Route(nfK, leafPortNF)
				leaves[i].SW.AddL2Route(genK, leafPortSink)
				continue
			}
			// Toward NF k: the flow sourced at leaf k-1 owns the path.
			leaves[i].SW.AddL2Route(nfK, leafPortSpine+rmt.PortID(l.spineOf((k-1+L)%L)))
			// Toward source k: the return path of flow k.
			leaves[i].SW.AddL2Route(genK, leafPortSpine+rmt.PortID(l.spineOf(k)))
		}
	}
	for s := 0; s < S; s++ {
		for k := 0; k < L; k++ {
			genK, nfK := leafSpineMACs(k)
			spines[s].SW.AddL2Route(nfK, rmt.PortID(k))
			spines[s].SW.AddL2Route(genK, rmt.PortID(k))
		}
	}

	// Programs.
	attach := func(n *SwitchNode, split, merge rmt.PortID) error {
		if _, err := n.SW.AttachPayloadPark(sec.Parking.Core(split, merge), -1); err != nil {
			return fmt.Errorf("attach %s: %w", n.Name, err)
		}
		return nil
	}
	if mode != ParkNone {
		// Ingress-leaf programs: split what the source sends, merge what
		// returns from this flow's spine.
		for i := 0; i < L; i++ {
			if err := attach(leaves[i], leafPortGen, leafPortSpine+rmt.PortID(l.spineOf(i))); err != nil {
				return FabricResult{}, err
			}
		}
	}
	// Compression companion policy: compress where the flow enters the
	// fabric, restore when the headers return from the flow's spine —
	// the same port layout ParkEdge uses, loaded from the declarative
	// spec rather than a built-in Go program.
	leafComp := make([]*prog.Instance, L)
	if compress {
		for i := 0; i < L; i++ {
			spec := prog.HeaderCompressSpec(prog.CompressParams{
				Slots: sec.Program.Slots, MaxExpiry: sec.Program.MaxExpiry,
				CompressPort: int(leafPortGen),
				RestorePort:  int(leafPortSpine + rmt.PortID(l.spineOf(i))),
			})
			inst, err := leaves[i].SW.AttachSpec(spec, nil, nil)
			if err != nil {
				return FabricResult{}, fmt.Errorf("attach compression %s: %w", leaves[i].Name, err)
			}
			leafComp[i] = inst
		}
	}
	// Window-start compression-counter snapshots, each taken on the
	// engine owning its leaf so partitioned runs stay race-free.
	compSnaps := make([]map[string]uint64, L)
	if compress {
		for i := 0; i < L; i++ {
			i := i
			leaves[i].Engine().ScheduleAt(windowStart, func() {
				compSnaps[i] = leafComp[i].Counters()
			})
		}
	}
	if mode == ParkEveryHop {
		// Striping parks again at the spine and at the egress leaf; each
		// downstream program sees the upstream header as payload, which
		// requires byte-accurate hops.
		for _, n := range leaves {
			n.WireParse = true
		}
		for _, n := range spines {
			n.WireParse = true
		}
		for i := 0; i < L; i++ {
			j := (i + 1) % L
			if err := attach(spines[l.spineOf(i)], rmt.PortID(i), rmt.PortID(j)); err != nil {
				return FabricResult{}, err
			}
			// Last-hop program at the egress leaf: split what arrives from
			// the flow's spine, merge what the local NF returns.
			if err := attach(leaves[j], leafPortSpine+rmt.PortID(l.spineOf(i)), leafPortNF); err != nil {
				return FabricResult{}, err
			}
		}
	}

	// Control plane. ECMP overlays each ingress leaf's forward route with
	// a hash group over the parking-safe spines (a group takes precedence
	// over the static L2 entry); the controller — when configured — owns
	// membership from there.
	var plant *controlPlant
	var groups []ctrl.Group
	if controlled {
		// Transit programs (demotable by the adaptive policy) are the
		// every-hop stripers: everything whose split port is not the
		// ingress-leaf traffic source.
		plant = newControlPlant(f, func(prog *core.Program) bool {
			return prog.Config().SplitPort != leafPortGen
		})
	}
	if ecmp {
		for i := 0; i < L; i++ {
			j := (i + 1) % L
			_, nfDst := leafSpineMACs(j)
			ports := make(map[string]rmt.PortID, S)
			var members []ctrl.Member
			for s := 0; s < S; s++ {
				if (mode != ParkNone || compress) && s == l.spineOf(j) {
					// A slim (or compressed) flow arriving at the egress
					// leaf on this spine's port would hit that leaf's
					// merge/restore port.
					continue
				}
				name := fmt.Sprintf("spine%d", s)
				ports[name] = leafPortSpine + rmt.PortID(s)
				members = append(members, ctrl.Member{Name: name, Links: []string{
					fmt.Sprintf("leaf%d->spine%d", i, s),
					fmt.Sprintf("spine%d->leaf%d", s, j),
				}})
			}
			gname := fmt.Sprintf("leaf%d->nf%d", i, j)
			if err := leaves[i].SW.SetECMPRoute(nfDst, ports); err != nil {
				return FabricResult{}, fmt.Errorf("ECMP group %s: %w", gname, err)
			}
			plant.addGroup(gname, leaves[i], nfDst, ports)
			groups = append(groups, ctrl.Group{Name: gname, Switch: leaves[i].Name, Members: members})
		}
	}

	gens := make([]*trafficgen.Generator, L)
	for i := range gens {
		gen, _ := leafSpineMACs(i)
		_, nfDst := leafSpineMACs((i + 1) % L)
		gens[i] = sec.generator(gen, nfDst, packet.IPv4Addr{10, 2, byte(i), 9}, sec.Opts.Seed+int64(i))
	}
	// Drop accounting away from the edges (fabric cables, spines, leaf
	// ingress from a spine) is sharded per partition — each shard has
	// exactly one writing partition — and summed with the edges' own
	// counts at harvest, so partitioned runs stay race-free and
	// byte-identical to serial ones.
	partDrops := make([]uint64, P)
	// recycleAt retires flow r's packets on partition at. Recycling into
	// flow r's pool is only safe from the partition that owns r's generator
	// (the source leaf's); elsewhere the packet is released to the GC —
	// generators fully rewrite reused packets, so pool membership never
	// shows up in results. Drops can strike mid-fabric where the owning
	// flow is unknown; charging a neighbour pool is equally harmless.
	recycleAt := func(r, at int) func(*packet.Packet) {
		if at == part[r] {
			return gens[r].Recycle
		}
		return func(*packet.Packet) {}
	}
	// dropFor builds a drop hook for flow r's packets charged to the
	// partition hosting the dropping hop.
	dropFor := func(r, at int) func(Parcel, string) {
		recycle := recycleAt(r, at)
		return func(p Parcel, _ string) {
			if p.InWindow {
				partDrops[at]++
			}
			recycle(p.Pkt)
		}
	}
	consumeFor := func(r, at int) func(Parcel) {
		recycle := recycleAt(r, at)
		return func(p Parcel) { recycle(p.Pkt) }
	}
	for i := 0; i < L; i++ {
		leaves[i].OnDrop = dropFor(i, part[i])
		leaves[i].OnConsumed = consumeFor(i, part[i])
	}
	for s := 0; s < S; s++ {
		spines[s].OnDrop = dropFor(s%L, part[L+s])
		spines[s].OnConsumed = consumeFor(s%L, part[L+s])
	}

	// Failure bookkeeping (flow 0).
	var phaseDelivered [3]uint64
	phase := func(now int64) int {
		if !l.FailLink || now < l.FailAtNs {
			return 0
		}
		if now < l.FailAtNs+l.RerouteNs {
			return 1
		}
		return 2
	}

	// Cables. Fabric links both ways between every leaf and every spine —
	// the only links that can cross a partition cut (everything at the
	// edge shares its leaf's partition). A link's transmit side lives with
	// the sending switch; its drop hook charges that same partition.
	fabricLink := func(name string, deliver func(Parcel), onDrop func(Parcel, string), src, dst int) *Link {
		return f.NewLinkAt(name, l.LinkBps, l.PropNs, l.QueueBytes, deliver, onDrop, src, dst)
	}
	var failLink *Link
	for i := 0; i < L; i++ {
		for s := 0; s < S; s++ {
			up := fabricLink(fmt.Sprintf("leaf%d->spine%d", i, s),
				spines[s].Ingress(rmt.PortID(i)), dropFor(i, part[i]), part[i], part[L+s])
			leaves[i].SetOut(leafPortSpine+rmt.PortID(s), up)
			down := fabricLink(fmt.Sprintf("spine%d->leaf%d", s, i),
				leaves[i].Ingress(leafPortSpine+rmt.PortID(s)), dropFor(i, part[L+s]), part[L+s], part[i])
			spines[s].SetOut(rmt.PortID(i), down)
			if l.FailLink && s == l.spineOf(0) && i == 1%L {
				failLink = down // flow 0's forward last fabric hop
			}
		}
	}

	// Edges: flow i's source and sink hang off leaf i, its NF server off
	// leaf j. Each side rides its leaf's partition, so no edge hop ever
	// crosses a cut.
	edges := make([]*edge, L)
	for i := range edges {
		j := (i + 1) % L
		spec := edgeSpec{
			src:     edgeSide{node: leaves[i], part: part[i], recycle: recycleAt(i, part[i])},
			nf:      edgeSide{node: leaves[j], part: part[j], recycle: recycleAt(i, part[j])},
			genPort: leafPortGen, sinkPort: leafPortSink, nfPort: leafPortNF,
			genName: fmt.Sprintf("gen%d", i), sinkName: fmt.Sprintf("sink%d", i),
			genCable: fmt.Sprintf("gen%d->leaf%d", i, i), sinkCable: fmt.Sprintf("leaf%d->sink%d", i, i),
			returnCable: fmt.Sprintf("nf%d->leaf%d", j, j), toNFCable: fmt.Sprintf("leaf%d->nf%d", j, j),
			linkBps: l.LinkBps, propNs: l.PropNs, queueBytes: l.QueueBytes,
			source:    gens[i],
			startAt:   int64(i) * 131, // desynchronize sources slightly
			serverCfg: nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})}, serverSeed: sec.Opts.Seed + (int64(i)+1)<<40,
			sec: sec,
		}
		if i == 0 {
			spec.onDeliver = func(now int64) { phaseDelivered[phase(now)]++ }
		}
		edges[i] = newEdge(f, spec)
	}

	// Failure scenario: fail flow 0's forward spine->leaf link, then
	// repoint the forward route onto an alternate spine. With parking on,
	// the alternate must avoid both the dead spine and the spine whose
	// arrival port is the egress leaf's merge port (validated above);
	// parked state at leaf 0 survives because the merge port pins the
	// untouched return path.
	if l.FailLink {
		// The failure lands on the engine owning the affected state: the
		// dead link's transmit side lives with its spine, the route (or
		// group) rewrite with leaf 0 — so partitioned runs mutate each from
		// its own timeline only.
		spines[l.spineOf(0)].Engine().ScheduleAt(l.FailAtNs, func() { failLink.Down = true })
		// Static routes are rewritten after the detection delay. With ECMP
		// the controller's next telemetry tick sees the down link and
		// shrinks the group instead — detection latency is the tick period.
		if !ecmp {
			_, nfDst := leafSpineMACs(1 % L)
			alt := (l.spineOf(0) + 1) % S
			if mode != ParkNone {
				for alt == l.spineOf(0) || alt == l.spineOf(1%L) {
					alt = (alt + 1) % S
				}
			}
			altPort := leafPortSpine + rmt.PortID(alt)
			leaves[0].Engine().ScheduleAt(l.FailAtNs+l.RerouteNs, func() {
				leaves[0].SW.AddL2Route(nfDst, altPort)
			})
		}
	}

	f.EnableObs(w.Obs)

	var controller *ctrl.Controller
	if controlled {
		cc := sec.Control
		def(&cc.Aggressive, sec.Parking.MaxExpiry)
		controller = attachController(f, cc, plant, groups, windowEnd+sec.Opts.WarmupNs)
	}

	f.Run(windowEnd + sec.Opts.WarmupNs)

	// Harvest (single-threaded again; partition goroutines are done). The
	// sharded counters sum back to the fabric-wide figures.
	res := FabricResult{
		Mode:           mode.String(),
		Links:          f.LinkReports(windowEnd + sec.Opts.WarmupNs),
		Switches:       f.SwitchReports(),
		PhaseDelivered: phaseDelivered,
	}
	for _, d := range partDrops {
		res.UnintendedDrops += d
	}
	if compress {
		for i, inst := range leafComp {
			res.Programs = append(res.Programs, programReport(leaves[i].Name, inst, compSnaps[i]))
		}
		sortPrograms(res.Programs)
	}
	if controller != nil {
		res.Control = controller.Snapshot()
	}
	for i, e := range edges {
		r := e.measure()
		fr := FlowResult{
			Name:         fmt.Sprintf("leaf%d->nf%d", i, (i+1)%L),
			SendGbps:     r.SendGbps,
			GoodputGbps:  r.GoodputGbps,
			ToNFGbps:     r.ToNFGbps,
			ToNFMpps:     r.ToNFMpps,
			AvgLatencyUs: r.AvgLatencyUs,
			MaxLatencyUs: r.MaxLatencyUs,
			Delivered:    r.Delivered,
		}
		res.Flows = append(res.Flows, fr)
		res.SendGbps += fr.SendGbps
		res.GoodputGbps += fr.GoodputGbps
		res.AvgLatencyUs += fr.AvgLatencyUs
		res.SentWindow += e.sent
		res.UnintendedDrops += e.src.drops + e.nf.drops
	}
	res.AvgLatencyUs /= float64(L)
	if res.SentWindow > 0 {
		res.UnintendedDropRate = float64(res.UnintendedDrops) / float64(res.SentWindow)
	}
	res.Healthy = res.UnintendedDropRate < HealthyDropRate
	return res, nil
}
