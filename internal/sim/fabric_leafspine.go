package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/rmt"
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
	g := l.Graph(sec)
	windowStart, windowEnd := sec.Opts.window()
	spec := runSpec{wires: wires{linkBps: l.LinkBps}, stagger: 131}

	// Window-start compression-counter snapshots.
	compSnaps := make([]map[string]uint64, L)
	if compress {
		spec.realised = func(r *simRun) {
			for i, insts := range r.programs[:L] {
				r.eng.ScheduleAt(windowStart, func() { compSnaps[i] = insts[0].Counters() })
			}
		}
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
	// The failure scenario's subject is flow 0's forward path, as the graph
	// routes it: leaf 0's uplink toward the NF, and the link from the spine
	// behind that uplink down to the egress leaf.
	egress := g.Flows[0].NF.At.Switch
	fwdPort := g.Switches[0].Routes[g.Flows[0].NF.MAC]
	fwdSpine := g.Peers()[0][fwdPort].Far.Switch
	spec.wired = func(r *simRun) {
		r.edges[0].onDeliver = func(now int64) { phaseDelivered[phase(now)]++ }
		if !l.FailLink {
			return
		}
		// Fail flow 0's forward spine->leaf link, then repoint the forward
		// route onto an alternate spine. With parking on, the alternate
		// must avoid both the dead spine and the spine whose arrival port
		// is the egress leaf's merge port (validated above); parked state
		// at leaf 0 survives because the merge port pins the untouched
		// return path.
		var failLink *Link
		for k, c := range g.Cables {
			if c.A.Switch == egress && c.B.Switch == fwdSpine {
				failLink = r.cables[k][1]
			}
		}
		r.eng.ScheduleAt(l.FailAtNs, func() { failLink.Down = true })
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
			r.eng.ScheduleAt(l.FailAtNs+l.RerouteNs, func() {
				r.nodes[0].SW.AddL2Route(g.Flows[0].NF.MAC, alt)
			})
		}
	}
	r, err := realise(g, sec, w, spec)
	if err != nil {
		return FabricResult{}, err
	}

	res := FabricResult{
		Mode:            mode.String(),
		Links:           r.LinkReports(windowEnd + sec.Opts.WarmupNs),
		Switches:        r.SwitchReports(),
		PhaseDelivered:  phaseDelivered,
		UnintendedDrops: r.fabricDrops,
		Control:         r.control(),
	}
	if compress {
		for i, leaf := range r.nodes[:L] {
			res.Programs = append(res.Programs, programReport(leaf.Name, r.programs[i][0], compSnaps[i]))
		}
		sortPrograms(res.Programs)
	}
	for i, e := range r.edges {
		m := e.measure()
		fr := FlowResult{
			Name:         g.Flows[i].Name,
			SendGbps:     m.SendGbps,
			GoodputGbps:  m.GoodputGbps,
			ToNFGbps:     m.ToNFGbps,
			ToNFMpps:     m.ToNFMpps,
			AvgLatencyUs: m.AvgLatencyUs,
			MaxLatencyUs: m.MaxLatencyUs,
			Delivered:    m.Delivered,
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
