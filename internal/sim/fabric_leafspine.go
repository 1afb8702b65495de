package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/ctrl"
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
	g := l.graph(sec)

	f := NewFabric()
	eng := f.eng
	eng.Cancel = w.Cancel
	windowStart, windowEnd := sec.Opts.window()

	// Switches in report order: leaves 0..L-1, then spines L..L+S-1.
	nodes := make([]*SwitchNode, L+S)
	for i, gs := range g.Switches {
		nodes[i] = f.AddSwitch(gs.Name)
		nodes[i].WireParse = gs.WireParse
		if err := g.Realise(i, nodes[i].SW); err != nil {
			return FabricResult{}, err
		}
	}
	leaves := nodes[:L]
	// Window-start compression-counter snapshots.
	compSnaps := make([]map[string]uint64, L)
	if compress {
		for i := range leaves {
			i := i
			eng.ScheduleAt(windowStart, func() {
				compSnaps[i] = leaves[i].SW.Instances()[0].Counters()
			})
		}
	}

	gens := make([]*trafficgen.Generator, L)
	for i := range gens {
		gens[i] = trafficgen.New(g.Flows[i].Traffic)
	}
	// Drop accounting away from the edges (fabric cables, spines, leaf
	// ingress from a spine), summed with the edges' own counts at harvest.
	// Drops can strike mid-fabric where the owning flow is unknown, so a
	// packet may recycle into a neighbour's pool: generators fully rewrite
	// reused packets, so pool membership never shows up in results.
	var fabricDrops uint64
	dropFor := func(r int) func(Parcel, string) {
		return func(p Parcel, _ string) {
			if p.InWindow {
				fabricDrops++
			}
			gens[r].Recycle(p.Pkt)
		}
	}
	for n, node := range nodes {
		recycle := gens[n%L].Recycle // spine s charges flow s%L's pool
		node.OnDrop = dropFor(n % L)
		node.OnConsumed = func(p Parcel) { recycle(p.Pkt) }
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

	// Cables. Fabric links both ways between every leaf and every spine;
	// both directions charge their drops to the leaf's flow.
	// The failure scenario's subject is flow 0's forward path, as the graph
	// routes it: leaf 0's uplink toward the NF, and the link from the spine
	// behind that uplink down to the egress leaf.
	egress := g.Flows[0].NF.At.Switch
	fwdPort := g.Switches[0].Routes[g.Flows[0].NF.MAC]
	fwdSpine := g.Peers()[0][fwdPort].Far.Switch
	var failLink *Link
	for _, c := range g.Cables {
		leaf, spine := c.A.Switch, c.B.Switch
		up := f.NewLink(nodes[leaf].Name+"->"+nodes[spine].Name, l.LinkBps, l.PropNs, l.QueueBytes,
			nodes[spine].Ingress(c.B.Port), dropFor(leaf))
		nodes[leaf].SetOut(c.A.Port, up)
		down := f.NewLink(nodes[spine].Name+"->"+nodes[leaf].Name, l.LinkBps, l.PropNs, l.QueueBytes,
			nodes[leaf].Ingress(c.A.Port), dropFor(leaf))
		nodes[spine].SetOut(c.B.Port, down)
		if spine == fwdSpine && leaf == egress {
			failLink = down // flow 0's forward last fabric hop
		}
	}

	// Edges: flow i's source and sink hang off leaf i, its NF server off
	// leaf j.
	edges := make([]*edge, L)
	for i := range edges {
		j := (i + 1) % L
		spec := edgeSpec{
			flow:    &g.Flows[i],
			src:     edgeSide{node: leaves[i], recycle: gens[i].Recycle},
			nf:      edgeSide{node: leaves[j], recycle: gens[i].Recycle},
			linkBps: l.LinkBps, propNs: l.PropNs, queueBytes: l.QueueBytes,
			source:     gens[i],
			startAt:    int64(i) * 131, // desynchronize sources slightly
			serverSeed: sec.Opts.Seed + (int64(i)+1)<<40,
			sec:        sec,
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
		eng.ScheduleAt(l.FailAtNs, func() { failLink.Down = true })
		// Static routes are rewritten after the detection delay. With ECMP
		// the controller's next telemetry tick sees the down link and
		// shrinks the group instead — detection latency is the tick period.
		if !ecmp {
			// Every leaf numbers its uplinks alike, so the egress leaf's
			// merge port names the uplink to avoid here.
			next := func(p rmt.PortID) rmt.PortID { return leafUplink + (p-leafUplink+1)%rmt.PortID(S) }
			alt := next(fwdPort)
			if mode != ParkNone {
				for alt == fwdPort || alt == g.Switches[egress].Park[0].Merge {
					alt = next(alt)
				}
			}
			eng.ScheduleAt(l.FailAtNs+l.RerouteNs, func() {
				leaves[0].SW.AddL2Route(g.Flows[0].NF.MAC, alt)
			})
		}
	}

	f.EnableObs(w.Obs)

	var controller *ctrl.Controller
	if controlled {
		cc := sec.Control
		def(&cc.Aggressive, sec.Parking.MaxExpiry)
		controller = attachController(f, cc, g, windowEnd+sec.Opts.WarmupNs)
	}

	f.Run(windowEnd + sec.Opts.WarmupNs)

	res := FabricResult{
		Mode:            mode.String(),
		Links:           f.LinkReports(windowEnd + sec.Opts.WarmupNs),
		Switches:        f.SwitchReports(),
		PhaseDelivered:  phaseDelivered,
		UnintendedDrops: fabricDrops,
	}
	if compress {
		for i, leaf := range leaves {
			res.Programs = append(res.Programs, programReport(leaf.Name, leaf.SW.Instances()[0], compSnaps[i]))
		}
		sortPrograms(res.Programs)
	}
	if controller != nil {
		res.Control = controller.Snapshot()
	}
	for i, e := range edges {
		r := e.measure()
		fr := FlowResult{
			Name:         g.Flows[i].Name,
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
