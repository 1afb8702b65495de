package prog

import (
	"errors"
	"fmt"
	"slices"

	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// LoadOptions are Load's arguments to Compile (Params) and Install.
type LoadOptions struct {
	Pipe, RecircPipe *rmt.Pipeline
	Params           map[string]int64
	Counters         map[string]*stats.Counter
}

// Instance is one installed program: the Compiled and Ports it came from,
// and the runtime parameters, counters and registers its Install created.
type Instance struct {
	prog     *Compiled
	ports    Ports
	runtime  map[string]*uint32
	counters map[string]*stats.Counter
	regs     map[string]*rmt.Register
	tables   []*rmt.MAT
}

// Spec returns the spec this instance was loaded from.
func (in *Instance) Spec() *Spec { return in.prog.spec }

// Runtime returns the current value of a named runtime parameter.
func (in *Instance) Runtime(name string) (uint32, bool) {
	cell, ok := in.runtime[name]
	if !ok {
		return 0, false
	}
	return *cell, true
}

// SetRuntime writes a named runtime parameter — the control-plane knob
// (SetMaxExpiry, SetSplitEnabled become writes here). It reports whether the
// program declares the parameter.
func (in *Instance) SetRuntime(name string, v uint32) bool {
	cell, ok := in.runtime[name]
	if ok {
		*cell = v
	}
	return ok
}

// Counters snapshots every counter into a map, for reports.
func (in *Instance) Counters() map[string]uint64 {
	m := make(map[string]uint64, len(in.counters))
	for n, c := range in.counters { //pp:nondeterministic-ok order-insensitive copy into a map
		m[n] = c.Value()
	}
	return m
}

// Tables returns the program's placed MATs, one per spec table in spec
// order, each rule an entry: its Hits count the entry's fires.
func (in *Instance) Tables() []*rmt.MAT { return in.tables }

// ParkGeometry returns the resolved parser geometry: payload blocks
// extracted, bytes per block, and the park offset. Blocks == 0 means the
// program parks no payload.
func (in *Instance) ParkGeometry() (blocks, blockBytes, parkOffset int) {
	sc := in.prog.scope
	return int(sc.Blocks), int(sc.BlockBytes), int(sc.ParkOffset)
}

// PPPorts returns the resolved ports whose inbound frames the program
// expects to carry a PayloadPark header.
func (in *Instance) PPPorts() []int {
	ports := slices.Clone(in.prog.ppPorts)
	for _, s := range in.prog.ppPorted {
		ports[s.at] = int(in.ports.of(s.port))
	}
	return ports
}

// Occupied counts occupied cells of the EXP/CLK register under role (cells
// whose expiry half is non-zero) — the generic form of Program.Occupancy —
// with rmt's in-place count, which skips the rows no packet has touched.
func (in *Instance) Occupied(role string) int {
	if reg := in.regs[role]; reg != nil && reg.Width() >= 8 {
		return reg.Occupied()
	}
	return 0
}

// Compile resolves spec under params, which override its named parameters
// (overriding one it does not declare is always a typo), and fails on the
// first problem the resolve pass found. It touches no pipe.
func Compile(spec *Spec, params map[string]int64) (*Compiled, error) {
	switch {
	case spec == nil:
		return nil, errors.New("prog: nil spec")
	case spec.Name == "":
		return nil, errors.New("prog: spec has no name")
	case spec.PHVBits <= 0:
		return nil, fmt.Errorf("prog: spec %q declares no PHV bits", spec.Name)
	}
	p := resolve(spec, params)
	if len(p.problems) > 0 {
		f := p.problems[0]
		return nil, fmt.Errorf("prog: spec %q: %s: %s", spec.Name, f.Object, f.Detail)
	}
	return p, nil
}

// Spec returns the spec p was compiled from.
func (p *Compiled) Spec() *Spec { return p.spec }

// Ports returns the port parameters as Compile resolved them: the ports
// Load installs at.
func (p *Compiled) Ports() Ports { return Ports{p.params[portParams[0]], p.params[portParams[1]]} }

// Install is the per-switch half of a load at ports: runtime cells, counters
// (those counters names, else the instance's own), registers, MATs and rules
// with the ports folded in, placed through rmt.Place, which checks every rule
// before it installs anything. recirc takes the "recirc" tables and
// registers, and is required exactly when the spec uses that pipe.
func (p *Compiled) Install(pipe, recirc *rmt.Pipeline, ports Ports, counters map[string]*stats.Counter) (*Instance, error) {
	spec := p.spec
	switch {
	case pipe == nil:
		return nil, errors.New("prog: nil pipe")
	case recirc == nil && spec.UsesRecircPipe():
		return nil, fmt.Errorf("prog: spec %q uses the recirculation pipe but none was supplied", spec.Name)
	}
	inst := &Instance{
		prog:     p,
		ports:    ports,
		runtime:  make(map[string]*uint32, len(spec.Runtime)),
		counters: make(map[string]*stats.Counter),
	}
	for k, v := range spec.Runtime { //pp:nondeterministic-ok order-insensitive copy into a map
		u := v
		inst.runtime[k] = &u
	}
	// Every counter name an entry bound: the external counter when one was
	// supplied, an instance-owned one otherwise.
	for ti := range p.tables {
		for ei := range p.tables[ti].entries {
			for _, name := range p.tables[ti].entries[ei].binding.CounterNames() {
				if inst.counters[name] == nil {
					if inst.counters[name] = counters[name]; inst.counters[name] == nil {
						inst.counters[name] = new(stats.Counter)
					}
				}
			}
		}
	}

	// The port sites take this install's ports, and the rules' ops share
	// one arena, as the rules do.
	conds := slices.Clone(p.conds)
	for _, s := range p.ported {
		conds[s.at].Value = ports.of(s.port)
	}
	ops, rules := make([]rmt.CondOp, 0, len(conds)), make([]rmt.Rule, p.entries)
	ls, regs, mats := p.layout(pipe, recirc, ports)
	var err error
	for ti, mat := range mats {
		t := &p.tables[ti]
		mat.Rules, rules = rules[:len(t.entries):len(t.entries)], rules[len(t.entries):]
		for ei := range t.entries {
			e, rule, n := &t.entries[ei], &mat.Rules[ei], len(ops)
			rule.Name = e.spec.Name
			if ops, err = rmt.CompileConds(ops, conds[e.at:e.at+len(e.conds)], inst.runtime); err == nil {
				rule.Conds = ops[n:len(ops):len(ops)]
				rule.Action, rule.Move, err = e.binding.Build(inst.runtime, inst.counters)
			}
			if err != nil {
				return nil, fmt.Errorf("prog: spec %q: %s/%s: %w", spec.Name, t.spec.Name, e.spec.Name, err)
			}
		}
	}
	if err = rmt.Place(ls...); err != nil {
		return nil, fmt.Errorf("prog: spec %q does not fit the pipe: %w", spec.Name, err)
	}
	inst.regs, inst.tables = regs, mats
	// Build the touched pipes' match programs now, so set-up pays for them
	// and not the first packet.
	pipe.Compile()
	if recirc != nil {
		recirc.Compile()
	}
	return inst, nil
}

// Load compiles spec under opts.Params and installs it on opts' pipes.
func Load(spec *Spec, opts LoadOptions) (*Instance, error) {
	c, err := Compile(spec, opts.Params)
	if err != nil {
		return nil, err
	}
	return c.Install(opts.Pipe, opts.RecircPipe, c.Ports(), opts.Counters)
}

// layout lays the resolved program out for rmt: its PHV bits and parser
// geometry on pipe, and every register and table on the pipe it names
// (recirc for "recirc"), the registers in the banks Compile planned, each
// named at ports. The MATs, one per table, carry no rules yet.
func (p *Compiled) layout(pipe, recirc *rmt.Pipeline, ports Ports) (ls []rmt.Layout, regs map[string]*rmt.Register, mats []*rmt.MAT) {
	sc := p.scope
	ls = []rmt.Layout{{Pipe: pipe, PHVBits: p.spec.PHVBits, Blocks: int(sc.Blocks), BlockBytes: int(sc.BlockBytes), ParkOffset: int(sc.ParkOffset)}}
	if recirc != nil {
		ls = append(ls, rmt.Layout{Pipe: recirc})
	}
	on := func(pipe string) *rmt.Layout {
		if pipe == "recirc" {
			return &ls[len(ls)-1]
		}
		return &ls[0]
	}
	all, regs := make([]*rmt.Register, len(p.regs)), make(map[string]*rmt.Register, len(p.regs))
	for i := range p.regs {
		r := &p.regs[i]
		all[i] = rmt.NewRegister(r.spec.Stage, p.name(r.spec.Name, object{}, &ports), int(r.width), int(r.cells))
		regs[r.role] = all[i]
	}
	for _, b := range p.banks {
		l := on(p.regs[b[0]].spec.Pipe)
		l.Banks = append(l.Banks, all[b[0]:b[1]:b[1]])
	}
	mats, arena := make([]*rmt.MAT, len(p.tables)), make([]rmt.MAT, len(p.tables))
	for ti := range p.tables {
		t := &p.tables[ti]
		arena[ti] = rmt.MAT{Name: p.name(t.spec.Name, object{}, &ports), Stage: t.spec.Stage, Res: t.spec.Resources}
		mats[ti] = &arena[ti]
		if t.reg != nil {
			mats[ti].Reg = regs[t.reg.role]
		}
		l := on(t.spec.Pipe)
		l.MATs = append(l.MATs, mats[ti])
	}
	return ls, regs, mats
}
