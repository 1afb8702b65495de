package ctrl

import (
	"fmt"
	"sort"
	"strings"

	"github.com/payloadpark/payloadpark/internal/obs"
)

// Decision is one control-plane action, timestamped for the decision
// timeline reports render.
type Decision struct {
	AtNs int64 `json:"at_ns"`
	// Kind is the action class: "reroute" (membership shrank because a
	// link died), "recover" (a member returned), "rebalance" (congestion
	// drain/undrain), "backoff"/"resume" (expiry policy), "demote"/
	// "restore" (transit parking), "stuck" (a group lost every member).
	Kind string `json:"kind"`
	// Target is the group or switch acted on.
	Target string `json:"target"`
	// Detail is a human-readable summary ("members spine0,spine2 -> spine2").
	Detail string `json:"detail"`
}

// Report is the controller's structured outcome: tick bookkeeping,
// per-kind totals, and the full decision timeline.
type Report struct {
	Ticks    int   `json:"ticks"`
	PeriodNs int64 `json:"period_ns"`
	// Totals by decision kind.
	Reroutes      int `json:"reroutes"`
	Recoveries    int `json:"recoveries"`
	Rebalances    int `json:"rebalances"`
	ExpiryChanges int `json:"expiry_changes"`
	Demotions     int `json:"demotions"`
	Restorations  int `json:"restorations"`
	// Decisions is the timeline, in tick order.
	Decisions []Decision `json:"decisions,omitempty"`
}

// groupState tracks one managed group between ticks.
type groupState struct {
	group Group
	// active is the member set last pushed (by name).
	active map[string]bool
	// drainCalm counts consecutive cool ticks per drained-for-congestion
	// member, toward its return.
	drained   map[string]int
	everStuck bool
}

// switchState tracks one parking switch between ticks.
type switchState struct {
	lastPremature uint64
	// aggressive is the Expiry the switch reported in its first sample:
	// the policy it resumes after a backoff.
	aggressive   uint32
	seeded       bool
	conservative bool
	calm         int
	demoted      bool
	demoteCalm   int
}

// Controller is the fabric control plane. Create with New, drive with
// Tick (the simulator schedules it every Config.PeriodNs), and collect
// the outcome with Snapshot.
type Controller struct {
	cfg    Config
	plant  Plant
	groups []*groupState
	sw     map[string]*switchState
	telem  Telemetry
	rep    Report

	// observer, when set, sees every decision as it is made (the
	// flight recorder's controller track). It runs inside Tick on the
	// controller's goroutine.
	observer func(at int64, kind, target string)
}

// New builds a controller over the plant. groups is the full ECMP group
// inventory (may be empty for adaptive-only deployments); cfg is
// default-filled in place of zero knobs.
func New(cfg Config, plant Plant, groups []Group) *Controller {
	cfg.FillDefaults()
	c := &Controller{cfg: cfg, plant: plant, sw: make(map[string]*switchState)}
	c.rep.PeriodNs = cfg.PeriodNs
	for _, g := range groups {
		active := make(map[string]bool, len(g.Members))
		for _, m := range g.Members {
			active[m.Name] = true
		}
		c.groups = append(c.groups, &groupState{
			group: g, active: active, drained: make(map[string]int),
		})
	}
	return c
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Snapshot returns a copy of the report so far (call after the run).
func (c *Controller) Snapshot() *Report {
	rep := c.rep
	rep.Decisions = append([]Decision(nil), c.rep.Decisions...)
	return &rep
}

// SetObserver installs a callback invoked on every decision. Install
// before the run starts; pass nil to detach.
func (c *Controller) SetObserver(fn func(at int64, kind, target string)) {
	c.observer = fn
}

// RegisterMetrics publishes the controller's tick and per-kind
// decision totals. Reads are closures over the live report: snapshot
// after the run (simulation) or accept racy-but-monotone counts (a
// live scrape).
func (c *Controller) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("pp_ctrl_ticks_total", "control intervals executed", func() uint64 { return uint64(c.rep.Ticks) })
	for _, m := range []struct {
		kind string
		n    *int
	}{
		{"reroute", &c.rep.Reroutes},
		{"recover", &c.rep.Recoveries},
		{"rebalance", &c.rep.Rebalances},
		{"expiry", &c.rep.ExpiryChanges},
		{"demote", &c.rep.Demotions},
		{"restore", &c.rep.Restorations},
	} {
		n := m.n
		reg.Counter(fmt.Sprintf("pp_ctrl_decisions_total{kind=%q}", m.kind), "decisions by kind", func() uint64 { return uint64(*n) })
	}
}

func (c *Controller) decide(now int64, kind, target, detail string) {
	c.rep.Decisions = append(c.rep.Decisions, Decision{AtNs: now, Kind: kind, Target: target, Detail: detail})
	if c.observer != nil {
		c.observer(now, kind, target)
	}
	switch kind {
	case "reroute":
		c.rep.Reroutes++
	case "recover":
		c.rep.Recoveries++
	case "rebalance":
		c.rep.Rebalances++
	case "backoff", "resume":
		c.rep.ExpiryChanges++
	case "demote":
		c.rep.Demotions++
	case "restore":
		c.rep.Restorations++
	}
}

// Tick runs one control interval at simulation time now: pull telemetry,
// rebalance groups, retune parking. Decisions are deterministic: groups
// are visited in registration order, switches in telemetry order.
func (c *Controller) Tick(now int64) {
	c.rep.Ticks++
	c.plant.ReadTelemetry(&c.telem)
	links := make(map[string]*LinkTelem, len(c.telem.Links))
	for i := range c.telem.Links {
		links[c.telem.Links[i].Name] = &c.telem.Links[i]
	}
	for _, gs := range c.groups {
		c.tickGroup(now, gs, links)
	}
	if c.cfg.Adaptive {
		for i := range c.telem.Switches {
			c.tickSwitch(now, &c.telem.Switches[i])
		}
	}
}

// memberDown reports whether any of the member's links is down.
func memberDown(m Member, links map[string]*LinkTelem) bool {
	for _, ln := range m.Links {
		if l, ok := links[ln]; ok && l.Down {
			return true
		}
	}
	return false
}

// memberMaxUtil is the hottest link on the member's path.
func memberMaxUtil(m Member, links map[string]*LinkTelem) float64 {
	var u float64
	for _, ln := range m.Links {
		if l, ok := links[ln]; ok && l.UtilPct > u {
			u = l.UtilPct
		}
	}
	return u
}

func (c *Controller) tickGroup(now int64, gs *groupState, links map[string]*LinkTelem) {
	g := gs.group
	up := make(map[string]bool, len(g.Members))
	util := make(map[string]float64, len(g.Members))
	for _, m := range g.Members {
		up[m.Name] = !memberDown(m, links)
		util[m.Name] = memberMaxUtil(m, links)
	}

	// Desired set: every up member, minus congestion drains.
	desired := make(map[string]bool, len(g.Members))
	for _, m := range g.Members {
		if up[m.Name] {
			desired[m.Name] = true
		}
	}
	causeDown := false
	for name := range gs.active { //pp:nondeterministic-ok order-independent boolean OR over a set
		if !up[name] {
			causeDown = true
		}
	}

	undrained := make(map[string]bool)
	if c.cfg.HotLinkPct > 0 {
		// Drain at most one hot member per tick, and only while a cold
		// alternative stays in the set — never drain the group empty.
		coldLeft := 0
		for name := range desired { //pp:nondeterministic-ok order-independent count over a set
			if !gs.activeDrained(name) && util[name] < c.cfg.ColdLinkPct {
				coldLeft++
			}
		}
		// Keep existing drains while hot; count calm ticks toward return.
		for _, m := range g.Members {
			name := m.Name
			if _, isDrained := gs.drained[name]; !isDrained {
				continue
			}
			if !desired[name] {
				delete(gs.drained, name) // link died; down handling owns it
				continue
			}
			if util[name] < c.cfg.ColdLinkPct {
				gs.drained[name]++
				if gs.drained[name] >= calmTicks {
					delete(gs.drained, name) // rejoin below
					undrained[name] = true
					continue
				}
			} else {
				gs.drained[name] = 0
			}
			delete(desired, name)
		}
		// New drain?
		if coldLeft > 0 {
			hottest, hotU := "", c.cfg.HotLinkPct
			for _, m := range g.Members {
				name := m.Name
				if !desired[name] {
					continue
				}
				if _, isDrained := gs.drained[name]; isDrained {
					continue
				}
				if util[name] > hotU && len(desired) > 1 {
					hottest, hotU = name, util[name]
				}
			}
			if hottest != "" {
				gs.drained[hottest] = 0
				delete(desired, hottest)
			}
		}
	}

	if setEqual(desired, gs.active) {
		return
	}
	if len(desired) == 0 {
		// Nothing healthy to route onto: keep the last table (the traffic
		// is black-holed either way) and say so once.
		if !gs.everStuck {
			gs.everStuck = true
			c.decide(now, "stuck", g.Name, "no healthy members; keeping last table")
		}
		return
	}
	names := setNames(desired)
	c.plant.PushGroup(g.Name, names)
	detail := fmt.Sprintf("members %s -> %s",
		strings.Join(setNames(gs.active), ","), strings.Join(names, ","))
	// Classify: a member lost to link death -> reroute; a newcomer that
	// was not merely undrained means a dead link came back -> recover;
	// everything else is congestion rebalancing.
	causeUp := false
	for name := range desired { //pp:nondeterministic-ok order-independent boolean OR over a set
		if !gs.active[name] && !undrained[name] {
			causeUp = true
		}
	}
	kind := "rebalance"
	switch {
	case causeDown:
		kind = "reroute"
	case causeUp:
		kind = "recover"
	}
	c.decide(now, kind, g.Name, detail)
	gs.active = desired
	gs.everStuck = false
}

// activeDrained reports whether the member is currently drained for
// congestion.
func (gs *groupState) activeDrained(name string) bool {
	_, ok := gs.drained[name]
	return ok
}

func (c *Controller) tickSwitch(now int64, st *SwitchTelem) {
	if st.Slots == 0 {
		return // no parking programs on this switch
	}
	ss := c.sw[st.Name]
	if ss == nil {
		ss = &switchState{}
		c.sw[st.Name] = ss
	}
	if !ss.seeded {
		ss.seeded = true
		ss.lastPremature = st.Premature
		ss.aggressive = st.Expiry
	}
	delta := st.Premature - ss.lastPremature
	ss.lastPremature = st.Premature

	// Expiry policy: back off on premature evictions, resume after calm.
	if delta > 0 {
		if !ss.conservative {
			ss.conservative = true
			c.plant.PushExpiry(st.Name, c.cfg.Conservative)
			c.decide(now, "backoff", st.Name,
				fmt.Sprintf("%d premature evictions/tick; expiry %d -> %d", delta, ss.aggressive, c.cfg.Conservative))
		}
		ss.calm = 0
	} else if ss.conservative {
		ss.calm++
		if ss.calm >= calmTicks {
			ss.conservative = false
			ss.calm = 0
			c.plant.PushExpiry(st.Name, ss.aggressive)
			c.decide(now, "resume", st.Name,
				fmt.Sprintf("calm for %d ticks; expiry %d -> %d", calmTicks, c.cfg.Conservative, ss.aggressive))
		}
	}

	// Demotion: a hot switch (parking table nearly full) drops its
	// transit parking — every-hop striping falls back toward park-at-edge
	// — and is restored after sustained cool-down.
	if !st.Demotable {
		return
	}
	occPct := 100 * float64(st.Occupancy) / float64(st.Slots)
	if !ss.demoted && occPct > c.cfg.DemotePct {
		ss.demoted = true
		ss.demoteCalm = 0
		c.plant.PushTransitSplit(st.Name, false)
		c.decide(now, "demote", st.Name,
			fmt.Sprintf("parking occupancy %.1f%% > %.0f%%; transit split off", occPct, c.cfg.DemotePct))
	} else if ss.demoted {
		if occPct < c.cfg.RestorePct {
			ss.demoteCalm++
			if ss.demoteCalm >= calmTicks {
				ss.demoted = false
				ss.demoteCalm = 0
				c.plant.PushTransitSplit(st.Name, true)
				c.decide(now, "restore", st.Name,
					fmt.Sprintf("parking occupancy %.1f%% < %.0f%% for %d ticks; transit split on", occPct, c.cfg.RestorePct, calmTicks))
			}
		} else {
			ss.demoteCalm = 0
		}
	}
}

func setEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a { //pp:nondeterministic-ok order-independent set-equality predicate
		if !b[k] {
			return false
		}
	}
	return true
}

func setNames(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s { //pp:nondeterministic-ok key collection; sorted before return
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
