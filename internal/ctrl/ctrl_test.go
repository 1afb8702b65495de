package ctrl

import (
	"fmt"
	"reflect"
	"testing"
)

// fakePlant records pushes and serves scripted telemetry; a switch reports
// the Expiry last pushed to it, as a real plant reads its programs.
type fakePlant struct {
	telem   Telemetry
	pushes  []string
	expiry  map[string]uint32
	split   map[string]bool
	members map[string][]string
}

func newFakePlant() *fakePlant {
	return &fakePlant{
		expiry:  make(map[string]uint32),
		split:   make(map[string]bool),
		members: make(map[string][]string),
	}
}

func (p *fakePlant) ReadTelemetry(t *Telemetry) {
	t.Switches = append(t.Switches[:0], p.telem.Switches...)
	for i := range t.Switches {
		if e, ok := p.expiry[t.Switches[i].Name]; ok {
			t.Switches[i].Expiry = e
		}
	}
	t.Links = append(t.Links[:0], p.telem.Links...)
}

func (p *fakePlant) PushExpiry(sw string, expiry uint32) {
	p.expiry[sw] = expiry
	p.pushes = append(p.pushes, fmt.Sprintf("expiry %s=%d", sw, expiry))
}

func (p *fakePlant) PushTransitSplit(sw string, enabled bool) {
	p.split[sw] = enabled
	p.pushes = append(p.pushes, fmt.Sprintf("split %s=%t", sw, enabled))
}

func (p *fakePlant) PushGroup(g string, members []string) {
	p.members[g] = members
	p.pushes = append(p.pushes, fmt.Sprintf("group %s=%v", g, members))
}

func (p *fakePlant) link(name string) *LinkTelem {
	for i := range p.telem.Links {
		if p.telem.Links[i].Name == name {
			return &p.telem.Links[i]
		}
	}
	panic("no link " + name)
}

func twoSpineGroup() []Group {
	return []Group{{
		Name: "leaf0:nf1", Switch: "leaf0",
		Members: []Member{
			{Name: "spine0", Links: []string{"leaf0->spine0", "spine0->leaf1"}},
			{Name: "spine2", Links: []string{"leaf0->spine2", "spine2->leaf1"}},
		},
	}}
}

func TestControllerReroutesOnLinkDown(t *testing.T) {
	p := newFakePlant()
	p.telem.Links = []LinkTelem{
		{Name: "leaf0->spine0"}, {Name: "spine0->leaf1"},
		{Name: "leaf0->spine2"}, {Name: "spine2->leaf1"},
	}
	c := New(Config{}, p, twoSpineGroup())

	c.Tick(1000)
	if len(p.pushes) != 0 {
		t.Fatalf("healthy fabric caused pushes: %v", p.pushes)
	}

	// The forward down-link dies: the member must be drained.
	p.link("spine0->leaf1").Down = true
	c.Tick(2000)
	if got := p.members["leaf0:nf1"]; !reflect.DeepEqual(got, []string{"spine2"}) {
		t.Fatalf("group after failure = %v, want [spine2]", got)
	}
	rep := c.Snapshot()
	if rep.Reroutes != 1 || len(rep.Decisions) != 1 || rep.Decisions[0].Kind != "reroute" ||
		rep.Decisions[0].AtNs != 2000 {
		t.Fatalf("reroute decision missing: %+v", rep)
	}

	// Stable failure: no duplicate pushes.
	c.Tick(3000)
	if rep := c.Snapshot(); rep.Reroutes != 1 {
		t.Fatalf("duplicate reroute: %+v", rep)
	}

	// Recovery: the member returns.
	p.link("spine0->leaf1").Down = false
	c.Tick(4000)
	if got := p.members["leaf0:nf1"]; !reflect.DeepEqual(got, []string{"spine0", "spine2"}) {
		t.Fatalf("group after recovery = %v", got)
	}
	if rep := c.Snapshot(); rep.Recoveries != 1 {
		t.Fatalf("recovery not recorded: %+v", rep)
	}
}

func TestControllerKeepsLastTableWhenAllMembersDie(t *testing.T) {
	p := newFakePlant()
	p.telem.Links = []LinkTelem{
		{Name: "leaf0->spine0", Down: true}, {Name: "spine0->leaf1"},
		{Name: "leaf0->spine2", Down: true}, {Name: "spine2->leaf1"},
	}
	c := New(Config{}, p, twoSpineGroup())
	c.Tick(1000)
	c.Tick(2000)
	if _, pushed := p.members["leaf0:nf1"]; pushed {
		t.Fatalf("pushed an empty group: %v", p.members)
	}
	rep := c.Snapshot()
	if len(rep.Decisions) != 1 || rep.Decisions[0].Kind != "stuck" {
		t.Fatalf("want one stuck decision, got %+v", rep.Decisions)
	}
}

func TestControllerCongestionDrainAndReturn(t *testing.T) {
	p := newFakePlant()
	p.telem.Links = []LinkTelem{
		{Name: "leaf0->spine0", UtilPct: 99}, {Name: "spine0->leaf1", UtilPct: 99},
		{Name: "leaf0->spine2", UtilPct: 10}, {Name: "spine2->leaf1", UtilPct: 10},
	}
	c := New(Config{HotLinkPct: 95}, p, twoSpineGroup())

	c.Tick(1000)
	if got := p.members["leaf0:nf1"]; !reflect.DeepEqual(got, []string{"spine2"}) {
		t.Fatalf("hot member not drained: %v", got)
	}
	if rep := c.Snapshot(); rep.Rebalances != 1 || rep.Decisions[0].Kind != "rebalance" {
		t.Fatalf("rebalance not recorded: %+v", c.Snapshot())
	}

	// The drained link cools; after calmTicks cool ticks it returns.
	p.link("leaf0->spine0").UtilPct = 5
	p.link("spine0->leaf1").UtilPct = 5
	for _, now := range []int64{2000, 3000} {
		c.Tick(now)
		if got := p.members["leaf0:nf1"]; !reflect.DeepEqual(got, []string{"spine2"}) {
			t.Fatalf("member returned before calm period: %v", got)
		}
	}
	c.Tick(4000)
	if got := p.members["leaf0:nf1"]; !reflect.DeepEqual(got, []string{"spine0", "spine2"}) {
		t.Fatalf("member did not return after calm period: %v", got)
	}
	// A congestion undrain is a rebalance, not a link recovery.
	rep := c.Snapshot()
	if rep.Rebalances != 2 || rep.Recoveries != 0 {
		t.Fatalf("undrain misclassified: rebalances=%d recoveries=%d (%+v)",
			rep.Rebalances, rep.Recoveries, rep.Decisions)
	}
}

func TestControllerAdaptiveExpiry(t *testing.T) {
	p := newFakePlant()
	p.telem.Switches = []SwitchTelem{{Name: "leaf0", Slots: 100, Expiry: 2}}
	c := New(Config{Adaptive: true, Conservative: 10}, p, nil)

	// The first tick seeds the premature baseline and the aggressive
	// Expiry from the switch's own sample; it pushes nothing.
	c.Tick(1000)
	if len(p.pushes) != 0 || len(c.Snapshot().Decisions) != 0 {
		t.Fatalf("the first tick acted: pushes %v, decisions %+v", p.pushes, c.Snapshot().Decisions)
	}

	p.telem.Switches[0].Premature = 5
	c.Tick(2000)
	if p.expiry["leaf0"] != 10 {
		t.Fatalf("no backoff: expiry=%v", p.expiry)
	}
	// Spike over: three calm ticks resume the switch's configured Expiry.
	c.Tick(3000)
	c.Tick(4000)
	if p.expiry["leaf0"] != 10 {
		t.Fatalf("resumed before calm period: expiry=%v", p.expiry)
	}
	c.Tick(5000)
	if p.expiry["leaf0"] != 2 {
		t.Fatalf("no resume to the configured 2: expiry=%v", p.expiry)
	}
	rep := c.Snapshot()
	if rep.ExpiryChanges != 2 || rep.Decisions[0].Detail != "5 premature evictions/tick; expiry 2 -> 10" ||
		rep.Decisions[1].Detail != "calm for 3 ticks; expiry 10 -> 2" {
		t.Fatalf("expiry decisions wrong: %+v", rep.Decisions)
	}
}

func TestControllerDemotesAndRestoresHotSwitch(t *testing.T) {
	p := newFakePlant()
	p.telem.Switches = []SwitchTelem{
		{Name: "spine0", Slots: 100, Occupancy: 95, Demotable: true},
		{Name: "leaf0", Slots: 100, Occupancy: 95}, // edge-only: never demoted
	}
	c := New(Config{Adaptive: true, DemotePct: 90, RestorePct: 50}, p, nil)

	c.Tick(1000)
	if on, pushed := p.split["spine0"]; !pushed || on {
		t.Fatalf("hot spine not demoted: %v", p.split)
	}
	if _, pushed := p.split["leaf0"]; pushed {
		t.Fatalf("non-demotable switch was demoted: %v", p.split)
	}

	// Cool-down below RestorePct for calmTicks restores it.
	p.telem.Switches[0].Occupancy = 20
	c.Tick(2000)
	c.Tick(3000)
	if on := p.split["spine0"]; on {
		t.Fatalf("spine restored before calm period: %v", p.split)
	}
	c.Tick(4000)
	if on := p.split["spine0"]; !on {
		t.Fatalf("spine not restored: %v", p.split)
	}
	rep := c.Snapshot()
	if rep.Demotions != 1 || rep.Restorations != 1 {
		t.Fatalf("demote/restore totals wrong: %+v", rep)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	var c Config
	c.FillDefaults()
	if c.PeriodNs != 250e3 || c.Conservative != 8 || c.DemotePct != 85 || c.RestorePct != 40 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	h := Config{HotLinkPct: 90}
	h.FillDefaults()
	if h.ColdLinkPct != 45 {
		t.Fatalf("ColdLinkPct default = %v, want half of hot", h.ColdLinkPct)
	}
}
