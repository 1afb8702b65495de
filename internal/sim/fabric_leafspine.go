package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/ctrl"
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
	// during the outage, and after the reroute (with the failure scenario
	// off, every delivery counts as before the failure).
	PhaseDelivered [3]uint64 `json:"phase_delivered"`
	// Control is the control-plane report — tick counts and the decision
	// timeline — when a controller ran (nil otherwise).
	Control *ctrl.Report `json:"control,omitempty"`
}

// View is the fabric's report of a run of its graph: per-flow end-to-end
// metrics and their sums, the per-hop link and switch reports, the
// fabric-wide drop rate over the packets sent, and flow 0's deliveries
// around the failure.
func (LeafSpine) View(s Sections, o *Outcome) FabricResult {
	res := FabricResult{
		Mode:            s.Parking.Mode.String(),
		Links:           o.Links,
		Switches:        o.Switches,
		Programs:        o.Programs,
		SentWindow:      o.Sent,
		UnintendedDrops: o.Drops,
		Control:         o.Control,
	}
	copy(res.PhaseDelivered[:], o.PhaseDelivered[0])
	for _, m := range o.Flows {
		res.Flows = append(res.Flows, FlowResult{
			Name:         m.Name,
			SendGbps:     m.SendGbps,
			GoodputGbps:  m.GoodputGbps,
			ToNFGbps:     m.ToNFGbps,
			ToNFMpps:     m.ToNFMpps,
			AvgLatencyUs: m.AvgLatencyUs,
			MaxLatencyUs: m.MaxLatencyUs,
			Delivered:    m.Delivered,
		})
		res.SendGbps += m.SendGbps
		res.GoodputGbps += m.GoodputGbps
		res.AvgLatencyUs += m.AvgLatencyUs
	}
	res.AvgLatencyUs /= float64(len(o.Flows))
	if res.SentWindow > 0 {
		res.UnintendedDropRate = float64(res.UnintendedDrops) / float64(res.SentWindow)
	}
	res.Healthy = res.UnintendedDropRate < HealthyDropRate
	return res
}
