package prog

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/payloadpark/payloadpark/internal/rmt"
)

// Compiled is a Spec resolved against its parameters and the rmt
// vocabulary: names expanded, every ParamVal a number, every condition field
// and action looked up, every entry bound to its action's descriptor, every
// register role followed, the registers grouped into banks. Install places
// it on as many pipes, at as many ports, as asked and never writes it; Lint
// analyses it. problems lists every reason the spec cannot be installed, as
// lint findings: Compile fails on the first.
type Compiled struct {
	spec     *Spec
	params   map[string]int64 // spec parameters under the overrides
	scope    rmt.Scope        // parser geometry and declared runtime parameters
	ppPorts  []int
	regs     []register // parallel to spec.Registers
	banks    [][2]int   // runs [lo, hi) of regs that share a bank
	tables   []table    // parallel to spec.Tables
	conds    []rmt.Cond // every entry's conditions, in entry order
	entries  int        // entries over all tables
	ported   []portSite // the values in conds that Install binds to its ports
	ppPorted []portSite // likewise in ppPorts
	writes   []metaWrite
	problems []LintFinding

	usedParams  map[string]bool
	usedRuntime map[string]bool
}

type register struct {
	spec         *RegisterSpec
	name, role   string
	width, cells int64
	sized        bool // width and cells resolved
	bound        bool // some table binds it
	body         bool // some binding entry runs an action body on it, not a block move
}

// banked reports whether only block moves touch the register: Install then
// carves it from its pipe's bank.
func (r *register) banked() bool { return r.bound && !r.body }

type table struct {
	spec    *TableSpec
	name    string
	reg     *register // nil when the table binds none (or an undeclared role)
	entries []entry
}

// entry is one resolved entry. conds, from index at of Compiled.conds, holds
// the conditions that resolved (partial marks an entry that lost one to a
// problem); binding is nil when the action or its bindings did not check out.
type entry struct {
	spec    *EntrySpec
	conds   []rmt.Cond
	at      int
	partial bool
	binding *rmt.Binding
}

// Ports are Install's bindings of a spec's port parameters: its
// "split_port" to Split and its "merge_port" to Merge. Compile fixes every
// other parameter, so one compiled program installs at any pair of ports.
type Ports struct{ Split, Merge int64 }

// portParams are the port parameters, in the order portSite.port counts.
var portParams = [...]string{"split_port", "merge_port"}

func (ps Ports) of(port int) int64 { return [...]int64{ps.Split, ps.Merge}[port] }

// portSite is a resolved value that names a port parameter: Install
// rewrites the value at index at to its binding of parameter port.
type portSite struct{ at, port int }

// metaWrite is one (table, entry, word) metadata write site; below is the
// exclusive bound of the register index it publishes (the value of the
// entry's bound parameter), 0 for a flag or size.
type metaWrite struct {
	table, entry, word int
	below              int64
	belowKey           string
}

// object names what a finding is about — "parser", "register <name>",
// "table <name>" or "<table>/<entry>" — and is rendered only when a finding
// is reported, so a clean resolve builds no strings.
type object struct{ kind, name, entry string }

func (o object) String() string {
	if o.entry != "" {
		return o.name + "/" + o.entry
	}
	return o.kind + o.name
}

func pipeName(p string) string {
	if p == "" {
		return "ingress"
	}
	return p
}

func (p *Compiled) problemf(code string, obj object, format string, args ...any) {
	p.problems = append(p.problems, LintFinding{Code: code, Object: obj.String(), Detail: fmt.Sprintf(format, args...)})
}

// val resolves a ParamVal under the program's parameters, tracking
// parameter use and reporting a dangling reference from "<what><key>". Only
// a value Install rewrites, a condition's or pp_ports', may reference a port
// parameter (names aside): its index at is appended to sites.
func (p *Compiled) val(pv ParamVal, obj object, what, key string, sites *[]portSite, at int) (int64, bool) {
	v, ok := pv.resolve(p.params)
	port := slices.Index(portParams[:], pv.ref)
	switch {
	case !ok:
		p.problemf("unbound-param", obj, "%s%s: reference %q names no declared parameter", what, key, "$"+pv.ref)
	case port >= 0 && sites == nil:
		p.problemf("port-param", obj, "%s%s: port parameter %q binds at install: only a condition or pp_ports may reference it", what, key, "$"+pv.ref)
	case port >= 0:
		*sites = append(*sites, portSite{at, port})
	}
	if ok && pv.ref != "" {
		p.usedParams[pv.ref] = true
	}
	return v, ok
}

// name expands the "$param" references inside a register or table name:
// Compile (ports nil) checks them, and Install expands a port parameter to
// its binding, so a switch's registers and MATs name the ports they serve.
func (p *Compiled) name(s string, obj object, ports *Ports) string {
	if !strings.ContainsRune(s, '$') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '$' {
			b.WriteByte(s[i])
			i++
			continue
		}
		j := i + 1
		for j < len(s) && (s[j] == '_' || s[j] >= 'a' && s[j] <= 'z' || s[j] >= '0' && s[j] <= '9') {
			j++
		}
		ref := s[i+1 : j]
		v, ok := p.params[ref]
		if port := slices.Index(portParams[:], ref); port >= 0 && ports != nil {
			v = ports.of(port)
		} else if ok && ports == nil {
			p.usedParams[ref] = true
		}
		if ok {
			b.WriteString(strconv.FormatInt(v, 10))
		} else if ref == "" {
			p.problemf("unbound-param", obj, "name %q has a bare '$'", s)
		} else {
			p.problemf("unbound-param", obj, "name %q: reference %q names no declared parameter", s, "$"+ref)
		}
		i = j
	}
	return b.String()
}

// placed checks the pipe a register or table declares; rmt.Fit checks its
// stage.
func (p *Compiled) placed(obj object, pipe string) {
	if pipe != "" && pipe != "ingress" && pipe != "recirc" {
		p.problemf("bad-layout", obj, "unknown pipe %q (want ingress or recirc)", pipe)
	}
}

// maxParserBytes bounds each parser geometry value to what the PHV could
// ever hold, so sizes derived from them cannot overflow or go negative; the
// pipe's own PHV budget check still decides whether the program fits.
const maxParserBytes = rmt.PHVBits / 8

// resolve is the one walk of a Spec: Compile and Lint both consume its
// result.
func resolve(s *Spec, overrides map[string]int64) *Compiled {
	p := &Compiled{
		spec:        s,
		params:      make(map[string]int64, len(s.Params)),
		regs:        make([]register, len(s.Registers)),
		tables:      make([]table, len(s.Tables)),
		usedParams:  make(map[string]bool, len(s.Params)),
		usedRuntime: make(map[string]bool, len(s.Runtime)),
	}
	for k, v := range s.Params { //pp:nondeterministic-ok order-insensitive copy into a map
		p.params[k] = v
	}
	// Sorted so a bad override always reports the same parameter first.
	for _, k := range sortedKeys(overrides) {
		if _, ok := s.Params[k]; !ok {
			p.problemf("unbound-param", object{kind: "params/", name: k}, "spec declares no parameter %q to override", k)
		}
		p.params[k] = overrides[k]
	}

	p.scope.Runtime = s.Runtime
	parser := object{name: "parser"}
	p.scope.Blocks, _ = p.val(s.Parser.Blocks, parser, "blocks", "", nil, 0)
	p.scope.BlockBytes, _ = p.val(s.Parser.BlockBytes, parser, "block_bytes", "", nil, 0)
	p.scope.ParkOffset, _ = p.val(s.Parser.ParkOffset, parser, "park_offset", "", nil, 0)
	for _, g := range [...]struct {
		what string
		v    int64
	}{{"blocks", p.scope.Blocks}, {"block_bytes", p.scope.BlockBytes}, {"park_offset", p.scope.ParkOffset}} {
		if g.v < 0 || g.v > maxParserBytes {
			p.problemf("bad-layout", parser, "%s = %d outside [0, %d]", g.what, g.v, maxParserBytes)
		}
	}
	if p.scope.Blocks > 0 && p.scope.BlockBytes == 0 {
		p.problemf("bad-layout", parser, "block_bytes = 0 with %d blocks to extract", p.scope.Blocks)
	}
	for i, pv := range s.Parser.PPPorts {
		if v, ok := p.val(pv, parser, "pp_ports#", strconv.Itoa(i), &p.ppPorted, len(p.ppPorts)); ok {
			p.ppPorts = append(p.ppPorts, int(v))
		}
	}

	roles := make(map[string]*register, len(s.Registers))
	for i := range s.Registers {
		spec := &s.Registers[i]
		obj := object{kind: "register ", name: spec.Name}
		r := &p.regs[i]
		*r = register{spec: spec, name: p.name(spec.Name, obj, nil), role: spec.Role}
		if r.role == "" {
			r.role = r.name
		}
		width, wok := p.val(spec.Width, obj, "width", "", nil, 0)
		cells, cok := p.val(spec.Cells, obj, "cells", "", nil, 0)
		r.width, r.cells, r.sized = width, cells, wok && cok
		p.placed(obj, spec.Pipe)
		if roles[r.role] != nil {
			p.problemf("bad-layout", obj, "duplicate register role %q", r.role)
		}
		roles[r.role] = r
	}

	// One arena each for the program's entries and conditions, not one
	// allocation per table and per entry: a fabric run loads 24 switches.
	nEntries, nConds := 0, 0
	for ti := range s.Tables {
		nEntries += len(s.Tables[ti].Entries)
		for ei := range s.Tables[ti].Entries {
			nConds += len(s.Tables[ti].Entries[ei].Match)
		}
	}
	entries, conds := make([]entry, nEntries), make([]rmt.Cond, 0, nConds)
	for ti := range s.Tables {
		spec := &s.Tables[ti]
		obj := object{kind: "table ", name: spec.Name}
		t := &p.tables[ti]
		n := len(spec.Entries)
		*t = table{spec: spec, name: p.name(spec.Name, obj, nil), entries: entries[:n:n]}
		entries = entries[n:]
		p.placed(obj, spec.Pipe)
		if spec.Register != "" {
			if t.reg = roles[spec.Register]; t.reg == nil {
				p.problemf("unknown-register", obj, "binds undeclared register role %q", spec.Register)
			} else {
				t.reg.bound = true
			}
		}
		if len(spec.Entries) == 0 {
			p.problemf("bad-layout", obj, "has no entries")
		}
		for ei := range spec.Entries {
			conds = p.resolveEntry(ti, ei, conds)
		}
	}
	p.conds, p.entries = conds, nEntries
	p.checkIndexDomains()
	// The layout plan: a run of registers only block moves touch, on one
	// pipe with one cell count, shares a row-major bank, whose fused moves
	// copy one row; any other register stands alone, dense for claim probes.
	for i := 0; i < len(p.regs); {
		r, j := &p.regs[i], i+1
		for j < len(p.regs) && r.banked() && p.regs[j].banked() && pipeName(p.regs[j].spec.Pipe) == pipeName(r.spec.Pipe) && p.regs[j].cells == r.cells {
			j++
		}
		p.banks = append(p.banks, [2]int{i, j})
		i = j
	}
	return p
}

// resolveEntry resolves one entry's conditions onto the tail of the conds
// arena, which it returns, and binds the entry to its action.
func (p *Compiled) resolveEntry(ti, ei int, conds []rmt.Cond) []rmt.Cond {
	t := &p.tables[ti]
	e := &t.entries[ei]
	e.spec = &t.spec.Entries[ei]
	obj := object{name: t.spec.Name, entry: e.spec.Name}

	e.at = len(conds)
	for _, c := range e.spec.Match {
		field, err := rmt.LookupField(c.Field)
		if name, isParam := field.RuntimeParam(); err == nil && isParam {
			if _, declared := p.spec.Runtime[name]; declared {
				p.usedRuntime[name] = true
			} else {
				err = fmt.Errorf("unknown condition field %q: no such runtime parameter", c.Field)
			}
		}
		v, ok := p.val(c.Value, obj, "condition ", c.Field, &p.ported, len(conds))
		switch {
		case err != nil:
			p.problemf("unknown-field", obj, "%v", err)
		case c.Op != "" && c.Op != "eq" && c.Op != "ne":
			p.problemf("unknown-op", obj, "condition %q has op %q (want eq or ne)", c.Field, c.Op)
		case ok:
			conds = append(conds, rmt.Cond{Field: field, Ne: c.Op == "ne", Value: v})
			continue
		}
		e.partial = true
	}
	e.conds = conds[e.at:len(conds):len(conds)]
	p.bindEntry(ti, ei, obj)
	return conds
}

// bindEntry binds a resolved entry to its action's descriptor and holds
// the entry's match and the table's register to what the action declared.
func (p *Compiled) bindEntry(ti, ei int, obj object) {
	t := &p.tables[ti]
	e := &t.entries[ei]
	args := rmt.ActionArgs{Counters: e.spec.Counters, Reasons: e.spec.Reasons}
	resolved := true
	if len(e.spec.Params) > 0 {
		args.Params = make(map[string]int64, len(e.spec.Params))
		// Sorted so an unresolvable entry always reports the same parameter
		// first.
		for _, k := range sortedKeys(e.spec.Params) {
			v, ok := p.val(e.spec.Params[k], obj, "parameter ", k, nil, 0)
			args.Params[k], resolved = v, resolved && ok
		}
	}
	d, err := rmt.LookupAction(e.spec.Action)
	if err != nil {
		p.problemf("unknown-action", obj, "%v", err)
		return
	}
	if !resolved {
		return // the dangling reference is already reported
	}
	b, err := d.Bind(args, p.scope)
	if err != nil {
		p.problemf("bad-binding", obj, "%v", err)
		return
	}
	e.binding = b
	if t.reg != nil && d.Move == rmt.NoMove {
		t.reg.body = true
	}
	for _, name := range d.Runtime {
		p.usedRuntime[name] = true
	}
	if d.Needs != rmt.NoHeader && !e.partial && !slices.ContainsFunc(e.conds, func(c rmt.Cond) bool { return c.Proves(d.Needs) }) {
		p.problemf("bad-binding", obj, "action %s reads a header no condition of the entry proves present (match on its valid or enabled field)", d.Name)
	}
	// An undeclared role or an unresolved geometry is already reported.
	err = nil
	if r := t.reg; r != nil && r.sized {
		err = b.CheckRegister(true, r.width, r.cells)
	} else if t.spec.Register == "" {
		err = b.CheckRegister(false, 0, 0)
	}
	if err != nil {
		p.problemf("register-misfit", obj, "%v", err)
	}
	for _, w := range d.Writes {
		word, below := b.WriteWord(w)
		p.writes = append(p.writes, metaWrite{table: ti, entry: ei, word: word, below: below, belowKey: w.Below})
	}
}

// reaches reports whether a metadata write in table wt can be observed by
// table rt on hardware: an earlier stage of the same pipe, or any
// ingress-pipe stage when the reader is on the recirculation pipe (metadata
// persists across the recirculation hop).
func (p *Compiled) reaches(wt, rt int) bool {
	w, r := p.tables[wt].spec, p.tables[rt].spec
	wp, rp := pipeName(w.Pipe), pipeName(r.Pipe)
	if wp == rp {
		return w.Stage < r.Stage
	}
	return wp == "ingress" && rp == "recirc"
}

// checkIndexDomains holds every metadata-indexed register access to its
// register: an index any table publishes into a metadata word must stay
// below the cell count of every register the program indexes by that word
// (tag- and zero-indexed accesses were checked against the register alone,
// by Binding.CheckRegister). Any table, not only those reaches admits: the
// model runs a stage's tables in placement order and a recirculated packet
// re-enters with its metadata, so a panic-free program cannot lean on the
// hardware's visibility rule.
func (p *Compiled) checkIndexDomains() {
	for _, w := range p.writes {
		if w.below == 0 {
			continue
		}
	readers:
		for ti := range p.tables {
			t := &p.tables[ti]
			if t.reg == nil || !t.reg.sized || w.below <= t.reg.cells {
				continue
			}
			for ei := range t.entries {
				b := t.entries[ei].binding
				if b == nil || b.Action.Reg.Index != rmt.IndexMeta || b.Action.Reg.Word != w.word {
					continue
				}
				wt := &p.tables[w.table]
				p.problemf("register-misfit", object{name: wt.spec.Name, entry: wt.entries[w.entry].spec.Name},
					"parameter %q = %d advances metadata word %d past the %d cells of register %q, which %s/%s indexes by it",
					w.belowKey, w.below, w.word, t.reg.cells, t.reg.name, t.spec.Name, t.entries[ei].spec.Name)
				break readers
			}
		}
	}
}
