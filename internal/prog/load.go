package prog

import (
	"errors"
	"fmt"
	"slices"

	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// LoadOptions carries the environment a Spec compiles against.
type LoadOptions struct {
	// Pipe receives the program's ingress tables. Required.
	Pipe *rmt.Pipeline
	// RecircPipe receives tables and registers declared with pipe "recirc".
	// Required exactly when the spec uses that pipe.
	RecircPipe *rmt.Pipeline
	// Params override spec parameters by name (sim uses this to repoint a
	// serialized spec's ports at a topology's geometry). Overriding a
	// parameter the spec does not declare is an error: it is always a typo.
	Params map[string]int64
	// Counters pre-binds spec counter names to externally owned counters
	// (core.Program binds its Counters struct this way so ctrl and the sim
	// read them unchanged). Names not bound here get instance-owned
	// counters.
	Counters map[string]*stats.Counter
	// Lint, when set, receives every lint finding before install, from the
	// same resolve pass Load installs (no second walk of the spec). Liveness
	// findings are advisory — a spec with dead tables still loads, since
	// liveness is a warning about intent, not installability — so the
	// callback decides whether to print, collect, or fail.
	Lint func(LintFinding)
}

// Instance is one loaded program: the resolved form of a Spec and the live
// runtime parameters, counters and registers it was installed with.
type Instance struct {
	prog     *program
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

// Load resolves spec, fails on any problem the resolve pass found, builds
// the program's rules, and places it — parser geometry, PHV bits, registers
// and tables — through rmt.Place, which checks every placement rule against
// the pipes before it installs anything: a spec that does not fit leaves
// both pipes as they were.
func Load(spec *Spec, opts LoadOptions) (*Instance, error) {
	switch {
	case spec == nil:
		return nil, errors.New("prog: nil spec")
	case opts.Pipe == nil:
		return nil, errors.New("prog: nil pipe")
	case spec.Name == "":
		return nil, errors.New("prog: spec has no name")
	case spec.PHVBits <= 0:
		return nil, fmt.Errorf("prog: spec %q declares no PHV bits", spec.Name)
	case opts.RecircPipe == nil && spec.UsesRecircPipe():
		return nil, fmt.Errorf("prog: spec %q uses the recirculation pipe but none was supplied", spec.Name)
	}

	p := resolve(spec, opts.Params)
	if opts.Lint != nil {
		for _, f := range p.lint() {
			opts.Lint(f)
		}
	}
	if len(p.problems) > 0 {
		f := p.problems[0]
		return nil, fmt.Errorf("prog: spec %q: %s: %s", spec.Name, f.Object, f.Detail)
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
				if _, ok := inst.counters[name]; ok {
					continue
				}
				if c := opts.Counters[name]; c != nil {
					inst.counters[name] = c
				} else {
					inst.counters[name] = new(stats.Counter)
				}
			}
		}
	}

	ls, regs, mats := p.layout(opts.Pipe, opts.RecircPipe)
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
	opts.Pipe.Compile()
	if opts.RecircPipe != nil {
		opts.RecircPipe.Compile()
	}
	return inst, nil
}

// layout lays the resolved program out for rmt: its PHV bits and parser
// geometry on pipe, and every register and table on the pipe it names
// (recirc for "recirc"). A run of registers only block moves touch (the
// payload table) shares one row-major bank, so that the moves rmt fuses copy
// one row; every other register stands alone, dense for claim probes and
// occupancy scans. The MATs, one per table, carry no rules yet.
func (p *program) layout(pipe, recirc *rmt.Pipeline) (ls []rmt.Layout, regs map[string]*rmt.Register, mats []*rmt.MAT) {
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
