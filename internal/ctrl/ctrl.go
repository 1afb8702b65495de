// Package ctrl is the fabric control plane: a Controller that runs
// beside a simulation (or, in principle, a real deployment) on a
// periodic tick, pulls per-switch and per-link telemetry through a Plant
// interface, and pushes table updates back — ECMP hash-group membership
// on link failure or congestion, and the fabric-wide generalization of
// the §7 adaptive eviction policy: per-switch Expiry retuning plus the
// demotion of park-at-every-hop to park-at-edge on hot switches.
//
// The package is deliberately free of simulator dependencies: the sim
// layer implements Plant over its fabric, the Controller only sees
// telemetry snapshots and pushes named updates, exactly the split a
// switch-CPU controller has over PCIe/gRPC in a real P4 deployment
// (Bosshart et al.'s match-action model driven from the control plane).
package ctrl

import (
	"errors"
	"fmt"
)

// Config is the control-plane section of a run's description (the
// scenario package re-exports it as Scenario.Control) and the controller's
// knobs in one. The zero value disables the control plane; with ECMP or
// Adaptive on, the zero knobs plus FillDefaults are the stock policy:
// 250 µs ticks, failure-driven rebalancing only, and — when Adaptive is
// set — the paper's aggressive/conservative expiry toggle with
// occupancy-driven demotion.
type Config struct {
	// ECMP (LeafSpine only) replaces each ingress leaf's static forward
	// route with a hash-group next-hop table over the parking-safe
	// spines; the controller rebalances membership on link failure and —
	// with HotLinkPct — congestion. Incompatible with park-at-every-hop.
	// Read by the fabric that installs the groups, not by the Controller.
	ECMP bool `json:"ecmp,omitempty"`
	// Adaptive enables the fabric-wide adaptive parking policy: per-switch
	// Expiry retuning between the aggressive and the conservative
	// threshold, and demotion of park-at-every-hop to park-at-edge on hot
	// switches. On a Testbed it is the single-switch §7 adaptive evictor.
	// Without it the controller only manages ECMP group membership.
	Adaptive bool `json:"adaptive,omitempty"`
	// PeriodNs is the telemetry/decision tick period (default 250 µs).
	PeriodNs int64 `json:"period_ns,omitempty"`
	// Conservative is the Expiry a switch backs off to on any premature
	// eviction (default 8; paper §7 examples: 10). The aggressive Expiry
	// it resumes after calmTicks clean ticks is the switch's own: the
	// Expiry its first telemetry sample reports, i.e. the deployment's
	// configured MaxExpiry, on every backend.
	Conservative uint32 `json:"conservative,omitempty"`
	// DemotePct/RestorePct bound the occupancy hysteresis (percent of
	// parking slots occupied) for demoting a switch's transit parking —
	// park-at-every-hop falls back to park-at-edge on that switch — and
	// restoring it (defaults 85 and 40).
	DemotePct  float64 `json:"demote_pct,omitempty"`
	RestorePct float64 `json:"restore_pct,omitempty"`

	// HotLinkPct, when > 0, enables congestion rebalancing: a group
	// member whose link utilization exceeds HotLinkPct is drained if the
	// group keeps at least one member below ColdLinkPct (default for
	// ColdLinkPct: half of HotLinkPct). Drained members return after
	// calmTicks of the link staying below ColdLinkPct.
	HotLinkPct  float64 `json:"hot_link_pct,omitempty"`
	ColdLinkPct float64 `json:"cold_link_pct,omitempty"`
}

// calmTicks is how many consecutive clean ticks return a backed-off switch
// to its aggressive Expiry, restore a demoted switch and undrain a cooled
// group member.
const calmTicks = 3

// Enabled reports whether any control-plane feature is on.
func (c Config) Enabled() bool { return c.ECMP || c.Adaptive }

// Validate is the one home of the rules every topology with a controller
// shares: a tick period must not run backwards (the simulator would
// reschedule the tick at the same nanosecond forever; 0 is the default),
// and an adaptive controller with neither parking tables to retune nor
// ECMP groups to manage has nothing to drive. parking says whether the
// run parks.
func (c Config) Validate(parking bool) error {
	if c.PeriodNs < 0 {
		return fmt.Errorf("control.period_ns = %d outside [0, +Inf)", c.PeriodNs)
	}
	if c.Adaptive && !c.ECMP && !parking {
		return errors.New("control.adaptive needs parking enabled")
	}
	return nil
}

// Label names the spec, as used in sweep labels and reports: "static"
// (zero value), "ecmp", "adaptive", or "ecmp+adaptive".
func (c Config) Label() string {
	switch {
	case c.ECMP && c.Adaptive:
		return "ecmp+adaptive"
	case c.ECMP:
		return "ecmp"
	case c.Adaptive:
		return "adaptive"
	default:
		return "static"
	}
}

// FillDefaults resolves the zero-value knobs to the stock policy.
func (c *Config) FillDefaults() {
	if c.PeriodNs == 0 {
		c.PeriodNs = 250e3
	}
	if c.Conservative == 0 {
		c.Conservative = 8
	}
	if c.DemotePct == 0 {
		c.DemotePct = 85
	}
	if c.RestorePct == 0 {
		c.RestorePct = 40
	}
	if c.HotLinkPct > 0 && c.ColdLinkPct == 0 {
		c.ColdLinkPct = c.HotLinkPct / 2
	}
}

// SwitchTelem is one switch's telemetry sample (cumulative counters; the
// controller keeps deltas itself).
type SwitchTelem struct {
	Name string
	// Premature is the cumulative premature-eviction count over every
	// installed program.
	Premature uint64
	// Occupancy/Slots describe parking-table pressure: occupied payload
	// slots over total capacity, summed over installed programs.
	Occupancy int
	Slots     int
	// Demotable marks switches with transit parking programs the
	// controller may demote (every-hop stripers; edge programs stay).
	Demotable bool
	// Expiry is the Expiry threshold the switch's parking programs claim
	// with (the largest, should they differ). The first sample's value is
	// the switch's aggressive Expiry.
	Expiry uint32
}

// LinkTelem is one link's telemetry sample.
type LinkTelem struct {
	Name string
	// Down marks a failed link (port-down/BFD signal).
	Down bool
	// UtilPct is the link's utilization over the last tick, in percent of
	// line rate.
	UtilPct float64
	// QueueBytes is the egress queue depth at sample time.
	QueueBytes int
}

// Telemetry is one tick's fabric-wide snapshot. The plant fills the
// slices in a deterministic order; the controller reuses them across
// ticks.
type Telemetry struct {
	Switches []SwitchTelem
	Links    []LinkTelem
}

// Member is one next-hop of an ECMP group: a stable name (the Maglev
// hashing identity, e.g. "spine2") and the telemetry links its path
// traverses — the member is healthy only while every one is up.
type Member struct {
	Name  string
	Links []string
}

// Group is one ECMP hash group under the controller's management: where
// it lives, and its full (configured) membership. The controller pushes
// the healthy subset through Plant.PushGroup.
type Group struct {
	Name    string
	Switch  string
	Members []Member
}

// Plant is the controller's view of the dataplane: telemetry out, table
// updates in. sim.Plant implements it for both backends, the simulator
// and the socket fabric; a real deployment would back it with P4Runtime.
type Plant interface {
	// ReadTelemetry fills t with the current sample, reusing its slices.
	ReadTelemetry(t *Telemetry)
	// PushExpiry rewrites the Expiry threshold of every parking program
	// on a switch.
	PushExpiry(sw string, expiry uint32)
	// PushTransitSplit enables/disables new Split claims on a switch's
	// transit (non-edge) parking programs — the demotion knob.
	PushTransitSplit(sw string, enabled bool)
	// PushGroup rewrites an ECMP group's membership to the named subset
	// of its configured members.
	PushGroup(group string, members []string)
}
