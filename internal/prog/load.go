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

// Instance is one installed program: the Compiled it came from and the
// runtime parameters, counters and registers its Install created.
type Instance struct {
	prog     *Compiled
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
func (in *Instance) PPPorts() []int { return slices.Clone(in.prog.ppPorts) }

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

// Param returns a declared parameter's value under Compile's overrides.
func (p *Compiled) Param(name string) (int64, bool) {
	v, ok := p.params[name]
	return v, ok
}

// Install is the per-switch half of a load: runtime cells, counters (those
// counters names, else the instance's own), registers, MATs and rules,
// placed through rmt.Place, which checks every rule before it installs
// anything. recirc takes the "recirc" tables and registers, and is required
// exactly when the spec uses that pipe.
func (p *Compiled) Install(pipe, recirc *rmt.Pipeline, counters map[string]*stats.Counter) (*Instance, error) {
	spec := p.spec
	switch {
	case pipe == nil:
		return nil, errors.New("prog: nil pipe")
	case recirc == nil && spec.UsesRecircPipe():
		return nil, fmt.Errorf("prog: spec %q uses the recirculation pipe but none was supplied", spec.Name)
	}
	inst := &Instance{
		prog:     p,
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

	ls, regs, mats := p.layout(pipe, recirc)
	var err error
	for ti, mat := range mats {
		t := &p.tables[ti]
		mat.Rules = make([]rmt.Rule, len(t.entries))
		for ei := range t.entries {
			e := &t.entries[ei]
			rule := &mat.Rules[ei]
			rule.Name = e.spec.Name
			if rule.Conds, err = rmt.CompileConds(e.conds, inst.runtime); err == nil {
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
	return c.Install(opts.Pipe, opts.RecircPipe, opts.Counters)
}

// layout lays the resolved program out for rmt: its PHV bits and parser
// geometry on pipe, and every register and table on the pipe it names
// (recirc for "recirc"). A run of registers only block moves touch (the
// payload table) shares one row-major bank, so that the moves rmt fuses copy
// one row; every other register stands alone, dense for claim probes and
// occupancy scans. The MATs, one per table, carry no rules yet.
func (p *Compiled) layout(pipe, recirc *rmt.Pipeline) (ls []rmt.Layout, regs map[string]*rmt.Register, mats []*rmt.MAT) {
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
	regs = make(map[string]*rmt.Register, len(p.regs))
	for i := 0; i < len(p.regs); {
		r := &p.regs[i]
		var bank []*rmt.Register
		for _, o := range p.regs[i:] {
			if len(bank) > 0 && !(r.banked() && o.banked() && pipeName(o.spec.Pipe) == pipeName(r.spec.Pipe) && o.cells == r.cells) {
				break
			}
			regs[o.role] = rmt.NewRegister(o.spec.Stage, o.name, int(o.width), int(o.cells))
			bank = append(bank, regs[o.role])
		}
		l := on(r.spec.Pipe)
		l.Banks = append(l.Banks, bank)
		i += len(bank)
	}
	mats = make([]*rmt.MAT, len(p.tables))
	for ti := range p.tables {
		t := &p.tables[ti]
		mats[ti] = &rmt.MAT{Name: t.name, Stage: t.spec.Stage, Res: t.spec.Resources}
		if t.reg != nil {
			mats[ti].Reg = regs[t.reg.role]
		}
		l := on(t.spec.Pipe)
		l.MATs = append(l.MATs, mats[ti])
	}
	return ls, regs, mats
}
