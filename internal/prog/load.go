package prog

import (
	"errors"
	"fmt"
	"sort"

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
	// Lint, when set, receives every Spec.Lint finding before install.
	// Findings are advisory — a spec with dead tables still loads, since
	// liveness is a warning about intent, not installability — so the
	// callback decides whether to print, collect, or fail.
	Lint func(LintFinding)
}

// Instance is one loaded program: the live runtime parameters, counters and
// registers of a Spec installed on a pipe. It implements rmt.Env.
type Instance struct {
	spec     *Spec
	params   map[string]int64
	runtime  map[string]*uint32
	counters map[string]*stats.Counter
	regs     map[string]*rmt.Register
}

// Spec returns the spec this instance was loaded from.
func (in *Instance) Spec() *Spec { return in.spec }

// RuntimeParam implements rmt.Env: the storage cell of a named runtime
// parameter.
func (in *Instance) RuntimeParam(name string) (*uint32, bool) {
	cell, ok := in.runtime[name]
	return cell, ok
}

// BoundCounter implements rmt.Env: the counter registered under name.
func (in *Instance) BoundCounter(name string) (*stats.Counter, bool) {
	c, ok := in.counters[name]
	return c, ok
}

// Param returns the resolved compile-time parameter value.
func (in *Instance) Param(name string) (int64, bool) {
	v, ok := in.params[name]
	return v, ok
}

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

// Counter returns the counter registered under name, or nil.
func (in *Instance) Counter(name string) *stats.Counter { return in.counters[name] }

// CounterValue returns the current value of the named counter (0 when the
// program has no such counter).
func (in *Instance) CounterValue(name string) uint64 {
	if c := in.counters[name]; c != nil {
		return c.Value()
	}
	return 0
}

// CounterNames lists the program's counter names, sorted.
func (in *Instance) CounterNames() []string {
	names := make([]string, 0, len(in.counters))
	for n := range in.counters { //pp:nondeterministic-ok key collection; sorted before return
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counters snapshots every counter into a map, for reports.
func (in *Instance) Counters() map[string]uint64 {
	m := make(map[string]uint64, len(in.counters))
	for n, c := range in.counters { //pp:nondeterministic-ok order-insensitive copy into a map
		m[n] = c.Value()
	}
	return m
}

// Register returns the register installed under role, or nil.
func (in *Instance) Register(role string) *rmt.Register { return in.regs[role] }

// ParkGeometry returns the resolved parser geometry: payload blocks
// extracted, bytes per block, and the park offset. Blocks == 0 means the
// program parks no payload.
func (in *Instance) ParkGeometry() (blocks, blockBytes, parkOffset int) {
	b, _ := in.spec.Parser.Blocks.resolve(in.params)
	bb, _ := in.spec.Parser.BlockBytes.resolve(in.params)
	off, _ := in.spec.Parser.ParkOffset.resolve(in.params)
	return int(b), int(bb), int(off)
}

// PPPorts returns the resolved ports whose inbound frames the program
// expects to carry a PayloadPark header.
func (in *Instance) PPPorts() []int {
	ports := make([]int, 0, len(in.spec.Parser.PPPorts))
	for _, pv := range in.spec.Parser.PPPorts {
		if p, err := pv.resolve(in.params); err == nil {
			ports = append(ports, int(p))
		}
	}
	return ports
}

// Occupied counts occupied cells of the EXP/CLK register under role (cells
// whose expiry half is non-zero) — the generic form of Program.Occupancy.
// It reads the cells in place, off the dataplane, without allocating.
func (in *Instance) Occupied(role string) int {
	reg := in.regs[role]
	if reg == nil || reg.Width() < 8 {
		return 0
	}
	n := 0
	for i := 0; i < reg.Cells(); i++ {
		if reg.Word(i, 0) != 0 { // the expiry half of an EXP/CLK cell
			n++
		}
	}
	return n
}

// Load validates spec and installs it: parser geometry, registers, then
// tables, each checked against the same stage budgets core.Install relied
// on (the rmt layer's placement panics surface as errors here).
func Load(spec *Spec, opts LoadOptions) (inst *Instance, err error) {
	switch {
	case spec == nil:
		return nil, errors.New("prog: nil spec")
	case opts.Pipe == nil:
		return nil, errors.New("prog: nil pipe")
	case spec.Name == "":
		return nil, errors.New("prog: spec has no name")
	case spec.PHVBits <= 0:
		return nil, fmt.Errorf("prog: spec %q declares no PHV bits", spec.Name)
	}

	if opts.Lint != nil {
		for _, f := range spec.Lint() {
			opts.Lint(f)
		}
	}

	params := make(map[string]int64, len(spec.Params))
	for k, v := range spec.Params { //pp:nondeterministic-ok order-insensitive copy into a map
		params[k] = v
	}
	// Sorted so a bad override always reports the same parameter first.
	for _, k := range sortedKeys(opts.Params) {
		if _, ok := spec.Params[k]; !ok {
			return nil, fmt.Errorf("prog: spec %q declares no parameter %q to override", spec.Name, k)
		}
		params[k] = opts.Params[k]
	}
	runtime := make(map[string]*uint32, len(spec.Runtime))
	for k, v := range spec.Runtime { //pp:nondeterministic-ok order-insensitive copy into a map
		u := v
		runtime[k] = &u
	}

	inst = &Instance{
		spec:     spec,
		params:   params,
		runtime:  runtime,
		counters: make(map[string]*stats.Counter),
		regs:     make(map[string]*rmt.Register),
	}

	// Resolve every counter name the entries reference: external binding
	// when supplied, instance-owned otherwise.
	for ti := range spec.Tables {
		for ei := range spec.Tables[ti].Entries {
			for _, name := range spec.Tables[ti].Entries[ei].Counters { //pp:nondeterministic-ok idempotent counter creation; order-insensitive
				if _, ok := inst.counters[name]; ok {
					continue
				}
				if c, ok := opts.Counters[name]; ok && c != nil {
					inst.counters[name] = c
				} else {
					inst.counters[name] = new(stats.Counter)
				}
			}
		}
	}

	// Installation below mutates the pipe; rmt reports placement violations
	// (SRAM/TCAM/VLIW overflow, register-MAT ports, stage locality, PHV
	// capacity) by panicking, exactly as its hardware-model contract states.
	// A declarative spec is user input, so those become errors here.
	defer func() {
		if r := recover(); r != nil {
			inst, err = nil, fmt.Errorf("prog: spec %q does not fit the pipe: %v", spec.Name, r)
		}
	}()

	if err := configureParser(spec, opts.Pipe, params); err != nil {
		return nil, err
	}

	for i := range spec.Registers {
		r := &spec.Registers[i]
		pipe, err := pickPipe(r.Pipe, opts)
		if err != nil {
			return nil, fmt.Errorf("prog: register %q: %w", r.Name, err)
		}
		name, err := substName(r.Name, params)
		if err != nil {
			return nil, err
		}
		width, err := r.Width.resolve(params)
		if err != nil {
			return nil, fmt.Errorf("prog: register %q width: %w", name, err)
		}
		cells, err := r.Cells.resolve(params)
		if err != nil {
			return nil, fmt.Errorf("prog: register %q cells: %w", name, err)
		}
		if r.Stage < 0 || r.Stage >= rmt.StageCount {
			return nil, fmt.Errorf("prog: register %q stage %d outside [0,%d)", name, r.Stage, rmt.StageCount)
		}
		role := r.Role
		if role == "" {
			role = name
		}
		if _, dup := inst.regs[role]; dup {
			return nil, fmt.Errorf("prog: duplicate register role %q", role)
		}
		inst.regs[role] = pipe.NewRegister(r.Stage, name, int(width), int(cells))
	}

	for i := range spec.Tables {
		t := &spec.Tables[i]
		pipe, err := pickPipe(t.Pipe, opts)
		if err != nil {
			return nil, fmt.Errorf("prog: table %q: %w", t.Name, err)
		}
		name, err := substName(t.Name, params)
		if err != nil {
			return nil, err
		}
		if t.Stage < 0 || t.Stage >= rmt.StageCount {
			return nil, fmt.Errorf("prog: table %q stage %d outside [0,%d)", name, t.Stage, rmt.StageCount)
		}
		var reg *rmt.Register
		if t.Register != "" {
			if reg = inst.regs[t.Register]; reg == nil {
				return nil, fmt.Errorf("prog: table %q binds undeclared register role %q", name, t.Register)
			}
		}
		if len(t.Entries) == 0 {
			return nil, fmt.Errorf("prog: table %q has no entries", name)
		}
		rules := make([]rmt.Rule, 0, len(t.Entries))
		for j := range t.Entries {
			rule, err := compileEntry(&t.Entries[j], inst, params)
			if err != nil {
				return nil, fmt.Errorf("prog: table %q: %w", name, err)
			}
			rules = append(rules, rule)
		}
		pipe.AddMAT(t.Stage, &rmt.MAT{Name: name, Reg: reg, Res: t.Resources.toRMT(), Rules: rules})
	}
	// Build the touched pipes' match programs now, so set-up pays for them
	// and not the first packet.
	opts.Pipe.Compile()
	if opts.RecircPipe != nil {
		opts.RecircPipe.Compile()
	}
	return inst, nil
}

// pickPipe selects the destination pipe for a register or table.
func pickPipe(which string, opts LoadOptions) (*rmt.Pipeline, error) {
	switch which {
	case "", "ingress":
		return opts.Pipe, nil
	case "recirc":
		if opts.RecircPipe == nil {
			return nil, errors.New("spec uses the recirculation pipe but none was supplied")
		}
		return opts.RecircPipe, nil
	}
	return nil, fmt.Errorf("unknown pipe %q (want ingress or recirc)", which)
}

// configureParser applies the spec's parser geometry with the same
// share-or-agree discipline core.Install used: the first payload-parking
// program on a pipe configures block extraction and declares its PHV usage,
// later ones must agree. Programs that park no payload (Blocks == 0) only
// declare their PHV usage.
func configureParser(spec *Spec, pipe *rmt.Pipeline, params map[string]int64) error {
	blocks, err := spec.Parser.Blocks.resolve(params)
	if err != nil {
		return fmt.Errorf("prog: parser blocks: %w", err)
	}
	blockBytes, err := spec.Parser.BlockBytes.resolve(params)
	if err != nil {
		return fmt.Errorf("prog: parser block bytes: %w", err)
	}
	parkOffset, err := spec.Parser.ParkOffset.resolve(params)
	if err != nil {
		return fmt.Errorf("prog: parser park offset: %w", err)
	}
	parser := pipe.Parser()
	if blocks > 0 {
		if parser.Blocks() == 0 {
			parser.ExtractPayloadBlocks(int(blocks), int(blockBytes))
			parser.SetParkOffset(int(parkOffset))
			pipe.DeclarePHVBits(spec.PHVBits)
		} else if parser.Blocks() != int(blocks) || parser.BlockBytes() != int(blockBytes) ||
			parser.ParkOffset() != int(parkOffset) {
			return fmt.Errorf("prog: pipe parser already extracts %dx%dB blocks at offset %d, spec %q needs %dx%dB at offset %d",
				parser.Blocks(), parser.BlockBytes(), parser.ParkOffset(), spec.Name, blocks, blockBytes, parkOffset)
		}
	} else {
		pipe.DeclarePHVBits(spec.PHVBits)
	}
	for _, pv := range spec.Parser.PPPorts {
		if _, err := pv.resolve(params); err != nil {
			return fmt.Errorf("prog: parser pp port: %w", err)
		}
	}
	return nil
}

// compileEntry resolves one entry's conditions and action against the
// instance environment.
func compileEntry(e *EntrySpec, inst *Instance, params map[string]int64) (rmt.Rule, error) {
	conds := make([]rmt.Cond, 0, len(e.Match))
	for _, c := range e.Match {
		v, err := c.Value.resolve(params)
		if err != nil {
			return rmt.Rule{}, fmt.Errorf("entry %q condition %q: %w", e.Name, c.Field, err)
		}
		conds = append(conds, rmt.Cond{Field: c.Field, Op: c.Op, Value: v})
	}
	ops, err := rmt.CompileConds(conds, inst)
	if err != nil {
		return rmt.Rule{}, fmt.Errorf("entry %q: %w", e.Name, err)
	}
	args := rmt.ActionArgs{Reasons: e.Reasons}
	if len(e.Params) > 0 {
		args.Params = make(map[string]int64, len(e.Params))
		// Sorted so an unresolvable entry always reports the same
		// parameter first.
		for _, k := range sortedKeys(e.Params) {
			v, err := e.Params[k].resolve(params)
			if err != nil {
				return rmt.Rule{}, fmt.Errorf("entry %q parameter %q: %w", e.Name, k, err)
			}
			args.Params[k] = v
		}
	}
	if len(e.Counters) > 0 {
		args.Counters = make(map[string]*stats.Counter, len(e.Counters))
		for role, name := range e.Counters { //pp:nondeterministic-ok order-insensitive copy into a map
			args.Counters[role] = inst.counters[name]
		}
	}
	action, err := rmt.BuildAction(e.Action, inst, args)
	if err != nil {
		return rmt.Rule{}, fmt.Errorf("entry %q: %w", e.Name, err)
	}
	return rmt.Rule{Name: e.Name, Conds: ops, Action: action}, nil
}
