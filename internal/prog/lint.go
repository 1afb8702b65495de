// Static liveness and consistency lint for table programs.
//
// Load already rejects specs the hardware model cannot install (budget
// overflow, unknown actions, missing bindings) — but it accepts programs
// that install fine and then do nothing: a table whose entries can never
// match because nothing writes the metadata word they probe, an entry
// shadowed by an earlier catch-all, a declared parameter no table reads.
// Those are the spec-level analogues of dead code, and like dead code
// they are almost always a typo in hand-written JSON. Lint finds them
// statically, before install, using the same action vocabulary metadata
// the rmt layer registers.
//
// cmd/ppvet runs Lint over the built-in specs and every committed spec
// file; LoadOptions.Lint surfaces the same findings through ppbench
// -program for user-authored specs. Deliberate exceptions are declared
// in the spec itself via lint_allow ("code:object" entries), keeping
// spec and waiver in one reviewable file.
package prog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/payloadpark/payloadpark/internal/rmt"
)

// LintFinding is one spec-level diagnostic: a machine-readable code, the
// spec object it is about (table/entry, register, or parameter path),
// and a human explanation.
type LintFinding struct {
	Code   string `json:"code"`
	Object string `json:"object"`
	Detail string `json:"detail"`
}

// Key is the "code:object" form lint_allow entries use to waive a
// finding.
func (f LintFinding) Key() string { return f.Code + ":" + f.Object }

func (f LintFinding) String() string {
	return fmt.Sprintf("%s %s: %s", f.Code, f.Object, f.Detail)
}

// Lint statically checks the spec for liveness and consistency problems
// Load cannot see: unbound or unused parameters, unknown actions and
// condition fields, entries that can never fire (no visible writer for a
// matched metadata word, shadowing by an earlier entry, a recirculation
// match with no recirculate action), registers no table binds, and
// metadata words two concurrently-live entries both write. Findings
// waived by the spec's lint_allow list are dropped; a waiver that
// matches nothing is itself a finding.
func (s *Spec) Lint() []LintFinding {
	l := &linter{
		spec:        s,
		usedParams:  make(map[string]bool),
		usedRuntime: make(map[string]bool),
	}
	l.run()
	return l.filtered()
}

// The per-action metadata the liveness checks consult: which user
// metadata words each registered action reads and writes per packet, and
// which runtime parameters it loads. This mirrors the action bodies in
// rmt/actions.go; an action absent from every map touches no metadata.
var (
	actionMetaWrites = map[string][]int{
		"park_claim":       {rmt.MetaSplitClaimed, rmt.MetaParkBytes, rmt.MetaParkOffset},
		"park_release":     {rmt.MetaPPEnabled, rmt.MetaTableIndex, rmt.MetaParkBytes, rmt.MetaParkOffset},
		"compress_claim":   {rmt.MetaCompClaimed},
		"restore_validate": {rmt.MetaCompEnabled, rmt.MetaCompTableIndex},
	}
	// actions that publish through a meta_out parameter, with its default.
	actionMetaOut = map[string]int{
		"advance_index": rmt.MetaTableIndex,
		"advance_clock": rmt.MetaClock,
	}
	actionMetaReads = map[string][]int{
		"park_claim":     {rmt.MetaTableIndex, rmt.MetaClock},
		"block_store":    {rmt.MetaTableIndex},
		"block_load":     {rmt.MetaTableIndex},
		"compress_claim": {rmt.MetaCompTableIndex, rmt.MetaCompClock},
		"header_store":   {rmt.MetaCompTableIndex},
		"header_load":    {rmt.MetaCompTableIndex},
	}
	actionRuntimeReads = map[string][]string{
		"park_claim":     {RTMaxExpiry},
		"compress_claim": {RTMaxExpiry},
	}
)

type linter struct {
	spec        *Spec
	findings    []LintFinding
	usedParams  map[string]bool
	usedRuntime map[string]bool
}

func (l *linter) addf(code, object, format string, args ...any) {
	l.findings = append(l.findings, LintFinding{
		Code: code, Object: object, Detail: fmt.Sprintf(format, args...),
	})
}

// val resolves a ParamVal, tracking parameter use and reporting unbound
// references. ok is false when the value is unknowable statically.
func (l *linter) val(pv ParamVal, object, what string) (v int64, ok bool) {
	if pv.ref == "" {
		return pv.lit, true
	}
	if v, declared := l.spec.Params[pv.ref]; declared {
		l.usedParams[pv.ref] = true
		return v, true
	}
	l.addf("unbound-param", object, "%s references $%s, which params does not declare", what, pv.ref)
	return 0, false
}

// scanName tracks and validates "$param" references inside a register or
// table name.
func (l *linter) scanName(name, object string) {
	for i := 0; i < len(name); {
		if name[i] != '$' {
			i++
			continue
		}
		j := i + 1
		for j < len(name) && (name[j] == '_' || name[j] >= 'a' && name[j] <= 'z' || name[j] >= '0' && name[j] <= '9') {
			j++
		}
		ref := name[i+1 : j]
		if ref == "" {
			l.addf("unbound-param", object, "name %q has a bare '$'", name)
		} else if _, ok := l.spec.Params[ref]; ok {
			l.usedParams[ref] = true
		} else {
			l.addf("unbound-param", object, "name %q references $%s, which params does not declare", name, ref)
		}
		i = j
	}
}

// lintedCond is one match condition with its value resolved, as the
// liveness and overlap checks compare them.
type lintedCond struct {
	field string
	op    string // "eq" or "ne"
	val   int64
	ok    bool // val resolved statically
	meta  int  // metadata word index when field is meta.<x>, else -1
}

// metaWrite is one (table, entry, word) metadata write site.
type metaWrite struct {
	table int // index into spec.Tables
	entry int
	word  int
}

func pipeName(p string) string {
	if p == "" {
		return "ingress"
	}
	return p
}

func (l *linter) run() {
	s := l.spec

	// Parser geometry.
	l.val(s.Parser.Blocks, "parser", "blocks")
	l.val(s.Parser.BlockBytes, "parser", "block_bytes")
	l.val(s.Parser.ParkOffset, "parser", "park_offset")
	for i, pv := range s.Parser.PPPorts {
		l.val(pv, "parser", fmt.Sprintf("pp_ports[%d]", i))
	}

	// Registers: validate names and geometry, collect roles.
	declaredRoles := make(map[string]bool)
	for i := range s.Registers {
		r := &s.Registers[i]
		obj := "register " + r.Name
		l.scanName(r.Name, obj)
		l.val(r.Width, obj, "width")
		l.val(r.Cells, obj, "cells")
		role := r.Role
		if role == "" {
			role = r.Name
		}
		declaredRoles[role] = true
	}

	// Tables: validate fields, actions and bindings; collect the resolved
	// conditions, metadata reads/writes, and recirculation facts the
	// liveness checks below consume.
	boundRoles := make(map[string]bool)
	conds := make([][][]lintedCond, len(s.Tables)) // [table][entry][cond]
	var writes []metaWrite
	hasRecirculate := false
	for ti := range s.Tables {
		t := &s.Tables[ti]
		tobj := "table " + t.Name
		l.scanName(t.Name, tobj)
		if t.Register != "" {
			if !declaredRoles[t.Register] {
				l.addf("unknown-register", tobj, "binds register role %q, which no register declares", t.Register)
			}
			boundRoles[t.Register] = true
		}
		conds[ti] = make([][]lintedCond, len(t.Entries))
		for ei := range t.Entries {
			e := &t.Entries[ei]
			eobj := t.Name + "/" + e.Name
			conds[ti][ei] = l.lintEntryConds(e, eobj)
			for _, name := range sortedKeys(e.Params) {
				l.val(e.Params[name], eobj, "parameter "+name)
			}
			if e.Action == "recirculate" {
				hasRecirculate = true
			}
			if !knownAction(e.Action) {
				l.addf("unknown-action", eobj, "action %q is not in the rmt vocabulary (known: %s)", e.Action, strings.Join(rmt.ActionNames(), ", "))
				continue
			}
			for _, name := range actionRuntimeReads[e.Action] {
				l.usedRuntime[name] = true
			}
			writes = append(writes, l.entryMetaWrites(e, ti, ei, eobj)...)
		}
	}

	l.checkLiveness(conds, writes, hasRecirculate)
	l.checkShadowing(conds)
	l.checkMetaOverlap(conds, writes)

	// Declared-but-unused parameters, runtime knobs, and registers.
	for _, name := range sortedKeys(s.Params) {
		if !l.usedParams[name] {
			l.addf("unused-param", "params/"+name, "parameter %q is never referenced by the parser, a register, or a table", name)
		}
	}
	for _, name := range sortedKeys(s.Runtime) {
		if !l.usedRuntime[name] {
			l.addf("unused-runtime", "runtime/"+name, "runtime parameter %q is never read by a match or an action", name)
		}
	}
	for i := range s.Registers {
		r := &s.Registers[i]
		role := r.Role
		if role == "" {
			role = r.Name
		}
		if !boundRoles[role] {
			l.addf("unused-register", "register "+r.Name, "no table binds register role %q", role)
		}
	}
}

// lintEntryConds validates one entry's match conditions and returns them
// resolved.
func (l *linter) lintEntryConds(e *EntrySpec, eobj string) []lintedCond {
	out := make([]lintedCond, 0, len(e.Match))
	for _, c := range e.Match {
		lc := lintedCond{field: c.Field, op: c.Op, meta: -1}
		switch c.Op {
		case "", "eq":
			lc.op = "eq"
		case "ne":
		default:
			l.addf("unknown-op", eobj, "condition %q has op %q (want eq or ne)", c.Field, c.Op)
			continue
		}
		if !l.lintCondField(c.Field, eobj, &lc) {
			continue
		}
		lc.val, lc.ok = l.val(c.Value, eobj, "condition "+c.Field)
		out = append(out, lc)
	}
	return out
}

// lintCondField validates a condition field name against the rmt
// vocabulary, filling lc.meta for metadata words.
func (l *linter) lintCondField(field, eobj string, lc *lintedCond) bool {
	if slices.Contains(rmt.CondFields(), field) {
		return true
	}
	if name, ok := strings.CutPrefix(field, "meta."); ok {
		if idx, known := rmt.MetaIndex(name); known {
			lc.meta = idx
			return true
		}
		l.addf("unknown-field", eobj, "meta.%s names no metadata word (and is not an index below %d)", name, rmt.MetaWords)
		return false
	}
	if name, ok := strings.CutPrefix(field, "param."); ok {
		if _, declared := l.spec.Runtime[name]; declared {
			l.usedRuntime[name] = true
			return true
		}
		l.addf("unknown-field", eobj, "param.%s names no runtime parameter", name)
		return false
	}
	l.addf("unknown-field", eobj, "unknown condition field %q", field)
	return false
}

// entryMetaWrites returns the metadata words one entry's action writes.
func (l *linter) entryMetaWrites(e *EntrySpec, ti, ei int, eobj string) []metaWrite {
	var out []metaWrite
	for _, w := range actionMetaWrites[e.Action] {
		out = append(out, metaWrite{table: ti, entry: ei, word: w})
	}
	if def, ok := actionMetaOut[e.Action]; ok {
		word := def
		if pv, has := e.Params["meta_out"]; has {
			if v, resolved := l.val(pv, eobj, "meta_out"); resolved {
				word = int(v)
			}
		}
		out = append(out, metaWrite{table: ti, entry: ei, word: word})
	}
	return out
}

func knownAction(name string) bool {
	for _, n := range rmt.ActionNames() {
		if n == name {
			return true
		}
	}
	return false
}

// writerVisible reports whether a metadata write in table wt can be
// observed by table rt: an earlier stage of the same pipe, or any
// ingress-pipe stage when the reader is on the recirculation pipe
// (metadata persists across the recirculation hop).
func (l *linter) writerVisible(wt, rt int) bool {
	w, r := &l.spec.Tables[wt], &l.spec.Tables[rt]
	wp, rp := pipeName(w.Pipe), pipeName(r.Pipe)
	if wp == rp {
		return w.Stage < r.Stage
	}
	return wp == "ingress" && rp == "recirc"
}

// checkLiveness flags entries that can never fire: a match requiring a
// nonzero metadata word no visible table writes, an action reading a
// word no visible table writes, or a recirculation-pass match in a
// program with no recirculate action. A table all of whose entries are
// dead is reported once, as dead-table.
func (l *linter) checkLiveness(conds [][][]lintedCond, writes []metaWrite, hasRecirculate bool) {
	parserPayloadOK := l.spec.ParksPayload()
	for ti := range l.spec.Tables {
		t := &l.spec.Tables[ti]
		dead := make([]LintFinding, 0, len(t.Entries))
		for ei := range t.Entries {
			e := &t.Entries[ei]
			eobj := t.Name + "/" + e.Name
			var why string
			for _, lc := range conds[ti][ei] {
				switch {
				case lc.meta >= 0:
					// meta.X == 0 (or ne nonzero) matches the PHV's zeroed
					// default; only a match that needs a nonzero word needs
					// a writer.
					needsWriter := lc.ok && (lc.op == "eq" && lc.val != 0 || lc.op == "ne" && lc.val == 0)
					if needsWriter && !l.wordWritten(lc.meta, ti, writes, parserPayloadOK) {
						why = fmt.Sprintf("matches %s %s %d but no earlier-stage table writes that metadata word", lc.field, lc.op, lc.val)
					}
				case lc.field == "pass":
					if lc.ok && lc.val >= 1 && !hasRecirculate {
						why = fmt.Sprintf("matches pass == %d but no entry runs the recirculate action", lc.val)
					}
				}
				if why != "" {
					break
				}
			}
			if why == "" && pipeName(t.Pipe) == "recirc" && !hasRecirculate {
				why = "lives on the recirculation pipe but no entry runs the recirculate action"
			}
			if why == "" {
				for _, word := range actionMetaReads[e.Action] {
					if !l.wordWritten(word, ti, writes, parserPayloadOK) {
						why = fmt.Sprintf("action %s reads metadata word %d, which no earlier-stage table writes", e.Action, word)
						break
					}
				}
			}
			if why != "" {
				dead = append(dead, LintFinding{Code: "dead-entry", Object: eobj, Detail: why})
			}
		}
		if len(dead) == len(t.Entries) && len(t.Entries) > 0 {
			l.addf("dead-table", "table "+t.Name, "every entry is dead: %s", dead[0].Detail)
		} else {
			l.findings = append(l.findings, dead...)
		}
	}
}

// wordWritten reports whether metadata word is written somewhere visible
// to reader table rt. The parser provides payload_ok on payload-parking
// programs.
func (l *linter) wordWritten(word, rt int, writes []metaWrite, parserPayloadOK bool) bool {
	if word == rmt.MetaPayloadOK && parserPayloadOK {
		return true
	}
	for _, w := range writes {
		if w.word == word && l.writerVisible(w.table, rt) {
			return true
		}
	}
	return false
}

// checkShadowing flags entries that can never fire because an earlier
// entry of the same table matches a superset of their packets: rules are
// first-match-fires, so if every condition of entry i also appears in
// entry j > i, no packet reaches j.
func (l *linter) checkShadowing(conds [][][]lintedCond) {
	for ti := range l.spec.Tables {
		t := &l.spec.Tables[ti]
		for j := 1; j < len(t.Entries); j++ {
			for i := 0; i < j; i++ {
				if condsSubset(conds[ti][i], conds[ti][j]) {
					l.addf("shadowed-entry", t.Name+"/"+t.Entries[j].Name,
						"unreachable: earlier entry %q matches every packet this entry matches", t.Entries[i].Name)
					break
				}
			}
		}
	}
}

// condsSubset reports whether every condition in a also appears in b
// (same field, op, and resolved value), i.e. a matches a superset of b.
func condsSubset(a, b []lintedCond) bool {
	for _, ca := range a {
		if !ca.ok {
			return false
		}
		found := false
		for _, cb := range b {
			if cb.ok && cb.field == ca.field && cb.op == ca.op && cb.val == ca.val {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// checkMetaOverlap flags metadata words written by entries of two
// different tables whose matches do not contradict: both can fire for
// the same packet, so the later write silently clobbers the earlier one.
// The built-in specs route around this with meta_out (the compression
// taggers publish to their own words); forgetting that routing is
// exactly the bug this check catches.
func (l *linter) checkMetaOverlap(conds [][][]lintedCond, writes []metaWrite) {
	for i := 0; i < len(writes); i++ {
		for j := i + 1; j < len(writes); j++ {
			a, b := writes[i], writes[j]
			if a.word != b.word || a.table == b.table {
				continue
			}
			ta, tb := &l.spec.Tables[a.table], &l.spec.Tables[b.table]
			if pipeName(ta.Pipe) != pipeName(tb.Pipe) {
				continue
			}
			if condsContradict(conds[a.table][a.entry], conds[b.table][b.entry]) {
				continue
			}
			l.addf("meta-overlap", ta.Name+"/"+ta.Entries[a.entry].Name,
				"writes metadata word %d, also written by %s/%s for overlapping packets; route one through meta_out",
				a.word, tb.Name, tb.Entries[b.entry].Name)
		}
	}
}

// condsContradict reports whether two condition sets provably cannot
// match the same packet: some field is pinned eq to different values, or
// pinned eq by one and excluded ne by the other.
func condsContradict(a, b []lintedCond) bool {
	for _, ca := range a {
		if !ca.ok {
			continue
		}
		for _, cb := range b {
			if !cb.ok || ca.field != cb.field {
				continue
			}
			switch {
			case ca.op == "eq" && cb.op == "eq" && ca.val != cb.val:
				return true
			case ca.op == "eq" && cb.op == "ne" && ca.val == cb.val:
				return true
			case ca.op == "ne" && cb.op == "eq" && ca.val == cb.val:
				return true
			}
		}
	}
	return false
}

// filtered applies the spec's lint_allow waivers and reports waivers
// that matched nothing.
func (l *linter) filtered() []LintFinding {
	if len(l.spec.LintAllow) == 0 {
		return l.findings
	}
	allowed := make(map[string]bool, len(l.spec.LintAllow))
	for _, key := range l.spec.LintAllow {
		allowed[key] = false
	}
	var out []LintFinding
	for _, f := range l.findings {
		if _, waived := allowed[f.Key()]; waived {
			allowed[f.Key()] = true
			continue
		}
		out = append(out, f)
	}
	for _, key := range l.spec.LintAllow {
		if !allowed[key] {
			out = append(out, LintFinding{
				Code: "unused-lint-allow", Object: key,
				Detail: "lint_allow entry matches no finding; remove it",
			})
		}
	}
	return out
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //pp:nondeterministic-ok order restored by the sort below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
