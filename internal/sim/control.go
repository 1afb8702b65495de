package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// Plant is ctrl.Plant over a realised Graph, for whichever backend
// realised it: telemetry reads walk the graph's switches in graph order (so
// controller decisions are deterministic), and pushes land on the switch
// programs and ECMP group tables — the same writes a switch CPU would
// issue over PCIe. Every touch of a switch runs inside quiet, the
// backend's "while this switch's dataplane is idle" window: a direct call
// on the single-threaded simulator, a worker barrier on the socket fabric.
// links, when non-nil, supplies the link half of the telemetry; only a
// backend that has links sets it.
type Plant struct {
	g     *Graph
	sws   []*core.Switch
	quiet func(sw int, fn func())
	links func(*ctrl.Telemetry)
}

// NewPlant binds g's control surface to its realised switches sws.
func NewPlant(g *Graph, sws []*core.Switch, quiet func(sw int, fn func()), links func(*ctrl.Telemetry)) *Plant {
	return &Plant{g: g, sws: sws, quiet: quiet, links: links}
}

// ReadTelemetry implements ctrl.Plant.
func (p *Plant) ReadTelemetry(t *ctrl.Telemetry) {
	t.Switches = t.Switches[:0]
	for i, sw := range p.sws {
		st := ctrl.SwitchTelem{Name: p.g.Switches[i].Name}
		p.quiet(i, func() {
			st.Premature = sw.ParkCounters().PrematureEvictions.Value()
			for k, prog := range sw.Programs() {
				st.Slots += prog.Config().Slots
				st.Occupancy += prog.Occupancy()
				st.Expiry = max(st.Expiry, prog.MaxExpiry())
				st.Demotable = st.Demotable || p.g.Switches[i].Park[k].Transit
			}
		})
		t.Switches = append(t.Switches, st)
	}
	t.Links = t.Links[:0]
	if p.links != nil {
		p.links(t)
	}
}

// onSwitch runs fn over every parking program of the named switch and its
// placement, inside the switch's quiet window.
func (p *Plant) onSwitch(name string, fn func(*core.Program, Placement)) {
	for i, sw := range p.sws {
		if p.g.Switches[i].Name != name {
			continue
		}
		p.quiet(i, func() {
			for k, prog := range sw.Programs() {
				fn(prog, p.g.Switches[i].Park[k])
			}
		})
	}
}

// PushExpiry implements ctrl.Plant: every program on the switch adopts
// the new Expiry threshold for future claims.
func (p *Plant) PushExpiry(sw string, expiry uint32) {
	p.onSwitch(sw, func(prog *core.Program, _ Placement) { prog.SetMaxExpiry(expiry) })
}

// PushTransitSplit implements ctrl.Plant: the switch's transit parking
// programs stop (or resume) claiming new slots; merges keep draining.
func (p *Plant) PushTransitSplit(sw string, enabled bool) {
	p.onSwitch(sw, func(prog *core.Program, pl Placement) {
		if pl.Transit {
			prog.SetSplitEnabled(enabled)
		}
	})
}

// PushGroup implements ctrl.Plant: rewrite the group to the named member
// subset.
func (p *Plant) PushGroup(group string, members []string) {
	for _, eg := range p.g.Groups {
		if eg.Name != group {
			continue
		}
		subset := make(map[string]rmt.PortID, len(members))
		for _, name := range members {
			if port, ok := eg.Ports[name]; ok {
				subset[name] = port
			}
		}
		if len(subset) == 0 {
			return // the controller never pushes an empty set; belt and braces
		}
		p.quiet(eg.On, func() {
			if err := p.sws[eg.On].SetECMPRoute(eg.Dst, subset); err != nil {
				panic(fmt.Sprintf("sim: push group %s: %v", group, err))
			}
		})
	}
}

// linkTelemetry is the simulator's link half of the telemetry: every
// registered link in wiring order, with utilization over the time since
// the previous read.
func (f *Fabric) linkTelemetry() func(*ctrl.Telemetry) {
	lastTxBits := make([]uint64, len(f.links))
	var lastNow int64
	return func(t *ctrl.Telemetry) {
		now := f.eng.Now()
		dt := now - lastNow
		for i, l := range f.links {
			tx := l.TxBits.Value()
			lt := ctrl.LinkTelem{Name: l.Name, Down: l.Down, QueueBytes: l.QueuedBytes()}
			if dt > 0 {
				lt.UtilPct = 100 * float64(tx-lastTxBits[i]) / (l.Bps * float64(dt) / 1e9)
			}
			lastTxBits[i] = tx
			t.Links = append(t.Links, lt)
		}
		lastNow = now
	}
}

// attachController starts a controller over g — realised on f, fully
// wired — ticking on the fabric's engine every cfg.PeriodNs until the
// horizon. Call before Fabric.Run; collect the decision timeline from the
// returned controller after it.
func attachController(f *Fabric, cfg ctrl.Config, g *Graph, until int64) *ctrl.Controller {
	sws := make([]*core.Switch, len(f.switches))
	for i, n := range f.switches {
		sws[i] = n.SW
	}
	groups := make([]ctrl.Group, len(g.Groups))
	for i, eg := range g.Groups {
		groups[i] = eg.Group
	}
	c := ctrl.New(cfg, NewPlant(g, sws, func(_ int, fn func()) { fn() }, f.linkTelemetry()), groups)
	f.observeController(c)
	eng := f.eng
	period := c.Config().PeriodNs
	var tick func()
	tick = func() {
		c.Tick(eng.Now())
		if eng.Now()+period <= until {
			eng.Schedule(period, tick)
		}
	}
	eng.Schedule(period, tick)
	return c
}
