// Static liveness and consistency lint for table programs.
//
// Compile and Install reject specs the hardware model cannot install or
// run safely (budget overflow, unknown actions, bindings an action does not
// declare, a register too small for its table) — but they accept programs
// that install fine and then do nothing: a table whose entries can never
// match because nothing writes the metadata word they probe, an entry
// shadowed by an earlier catch-all, a declared parameter no table reads.
// Those are the spec-level analogues of dead code, and like dead code they
// are almost always a typo in hand-written JSON. Lint reports both kinds
// from the one resolved form Compile returns (resolve.go): the resolve
// pass's problems as they stand, and the liveness checks below, which read
// what each action reads, writes and loads from its rmt descriptor.
//
// The prog tests hold the built-in specs and every committed spec file to
// a clean Lint; ppbench -program prints the findings for user-authored
// specs. Deliberate exceptions are declared in the spec itself via
// lint_allow ("code:object" entries), keeping spec and waiver in one
// reviewable file.
package prog

import (
	"fmt"
	"slices"
	"sort"

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

// Lint statically checks the spec: everything that would make Compile reject
// it (unbound parameters, unknown actions and condition fields, bindings
// an action does not declare, registers that do not fit their tables) and
// the liveness problems Compile cannot see — entries that can never fire (no
// visible writer for a matched metadata word, shadowing by an earlier
// entry, a recirculation match with no recirculating action), registers no
// table binds, unused parameters, and metadata words two concurrently-live
// entries both write. Findings waived by the spec's lint_allow list are
// dropped; a waiver that matches nothing is itself a finding.
func (s *Spec) Lint() []LintFinding { return resolve(s, nil).lint() }

// passField is the condition field liveness treats specially.
var passField, _ = rmt.LookupField("pass")

// lint runs the placement check and the liveness checks over the resolved
// program and returns them with the resolve pass's problems, less the
// spec's waivers. It reports through problemf, so it runs on a program
// resolved for Lint alone, never on one Compile returned.
func (p *Compiled) lint() []LintFinding {
	// The layout Install would place, held to rmt.Fit on fresh pipes.
	if len(p.problems) == 0 {
		ls, _, _ := p.layout(rmt.NewPipeline("ingress"), rmt.NewPipeline("recirc"), p.Ports())
		for _, lay := range ls {
			if err := rmt.Fit(lay); err != nil {
				p.problemf("bad-layout", object{kind: "pipe ", name: lay.Pipe.Name()}, "%v", err)
			}
		}
	}
	p.checkLiveness()
	p.checkShadowing()
	p.checkMetaOverlap()

	// Declared-but-unused parameters, runtime knobs, and registers.
	for _, name := range sortedKeys(p.spec.Params) {
		if !p.usedParams[name] {
			p.problemf("unused-param", object{kind: "params/", name: name}, "parameter %q is never referenced by the parser, a register, or a table", name)
		}
	}
	for _, name := range sortedKeys(p.spec.Runtime) {
		if !p.usedRuntime[name] {
			p.problemf("unused-runtime", object{kind: "runtime/", name: name}, "runtime parameter %q is never read by a match or an action", name)
		}
	}
	for i := range p.regs {
		if r := &p.regs[i]; !r.bound {
			p.problemf("unused-register", object{kind: "register ", name: r.spec.Name}, "no table binds register role %q", r.role)
		}
	}
	return p.spec.waive(p.problems)
}

// checkLiveness flags entries that can never fire: a match requiring a
// nonzero metadata word no visible table writes, an action reading a
// word no visible table writes, or a recirculation-pass match in a
// program with no recirculating action. A table all of whose entries are
// dead is reported once, as dead-table.
func (p *Compiled) checkLiveness() {
	recirculates := false
	for ti := range p.tables {
		for _, e := range p.tables[ti].entries {
			recirculates = recirculates || e.binding != nil && e.binding.Action.Recirculates
		}
	}
	for ti := range p.tables {
		t := &p.tables[ti]
		dead := make([]string, len(t.entries))
		ndead := 0
		for ei := range t.entries {
			e := &t.entries[ei]
			var why string
			for _, c := range e.conds {
				if word, isMeta := c.Field.MetaWord(); isMeta {
					// meta.X == 0 (or ne nonzero) matches the PHV's zeroed
					// default; only a match that needs a nonzero word needs
					// a writer.
					if (c.Value != 0) != c.Ne && !p.wordWritten(word, ti) {
						why = fmt.Sprintf("matches %s %s %d but no earlier-stage table writes that metadata word", c.Field, map[bool]string{false: "eq", true: "ne"}[c.Ne], c.Value)
					}
				} else if c.Field == passField && c.Value >= 1 && !c.Ne && !recirculates {
					why = fmt.Sprintf("matches pass == %d but no entry's action can recirculate a packet", c.Value)
				}
				if why != "" {
					break
				}
			}
			if why == "" && pipeName(t.spec.Pipe) == "recirc" && !recirculates {
				why = "lives on the recirculation pipe but no entry's action can recirculate a packet"
			}
			if why == "" && e.binding != nil {
				for _, word := range e.binding.Action.Reads {
					if !p.wordWritten(word, ti) {
						why = fmt.Sprintf("action %s reads metadata word %d, which no earlier-stage table writes", e.binding.Action.Name, word)
						break
					}
				}
			}
			if dead[ei] = why; why != "" {
				ndead++
			}
		}
		if ndead == len(t.entries) && ndead > 0 {
			p.problemf("dead-table", object{kind: "table ", name: t.spec.Name}, "every entry is dead: %s", dead[0])
			continue
		}
		for ei, why := range dead {
			if why != "" {
				p.problemf("dead-entry", object{name: t.spec.Name, entry: t.entries[ei].spec.Name}, "%s", why)
			}
		}
	}
}

// wordWritten reports whether metadata word is written somewhere visible
// to reader table rt. The parser provides payload_ok on payload-parking
// programs.
func (p *Compiled) wordWritten(word, rt int) bool {
	if word == rmt.MetaPayloadOK && p.scope.Blocks > 0 {
		return true
	}
	for _, w := range p.writes {
		if w.word == word && p.reaches(w.table, rt) {
			return true
		}
	}
	return false
}

// checkShadowing flags entries that can never fire because an earlier
// entry of the same table matches a superset of their packets: rules are
// first-match-fires, so if every condition of entry i also appears in
// entry j > i, no packet reaches j.
func (p *Compiled) checkShadowing() {
	for ti := range p.tables {
		t := &p.tables[ti]
		for j := 1; j < len(t.entries); j++ {
			for i := 0; i < j; i++ {
				if condsSubset(&t.entries[i], &t.entries[j]) {
					p.problemf("shadowed-entry", object{name: t.spec.Name, entry: t.entries[j].spec.Name},
						"unreachable: earlier entry %q matches every packet this entry matches", t.entries[i].spec.Name)
					break
				}
			}
		}
	}
}

// condsSubset reports whether every condition of a also appears in b (same
// field, sense and value), i.e. a matches a superset of b. An entry that
// lost a condition to a problem is not known to.
func condsSubset(a, b *entry) bool {
	for _, c := range a.conds {
		if !slices.Contains(b.conds, c) {
			return false
		}
	}
	return !a.partial
}

// checkMetaOverlap flags metadata words written by entries of two
// different tables whose matches do not contradict: both can fire for
// the same packet, so the later write silently clobbers the earlier one.
// The built-in specs route around this with meta_out (the compression
// taggers publish to their own words); forgetting that routing is
// exactly the bug this check catches.
func (p *Compiled) checkMetaOverlap() {
	for i, a := range p.writes {
		for _, b := range p.writes[i+1:] {
			ta, tb := &p.tables[a.table], &p.tables[b.table]
			if a.word != b.word || a.table == b.table || pipeName(ta.spec.Pipe) != pipeName(tb.spec.Pipe) ||
				condsContradict(ta.entries[a.entry].conds, tb.entries[b.entry].conds) {
				continue
			}
			p.problemf("meta-overlap", object{name: ta.spec.Name, entry: ta.entries[a.entry].spec.Name},
				"writes metadata word %d, also written by %s/%s for overlapping packets; route one through meta_out",
				a.word, tb.spec.Name, tb.entries[b.entry].spec.Name)
		}
	}
}

// condsContradict reports whether two condition sets provably cannot
// match the same packet: some field is pinned eq to different values, or
// pinned eq by one and excluded ne by the other.
func condsContradict(a, b []rmt.Cond) bool {
	for _, ca := range a {
		for _, cb := range b {
			if ca.Field != cb.Field || ca.Ne && cb.Ne {
				continue
			}
			if (ca.Value == cb.Value) == (ca.Ne != cb.Ne) {
				return true
			}
		}
	}
	return false
}

// waive applies the spec's lint_allow waivers and reports waivers that
// matched nothing.
func (s *Spec) waive(findings []LintFinding) []LintFinding {
	if len(s.LintAllow) == 0 {
		return findings
	}
	allowed := make(map[string]bool, len(s.LintAllow))
	for _, key := range s.LintAllow {
		allowed[key] = false
	}
	var out []LintFinding
	for _, f := range findings {
		if _, waived := allowed[f.Key()]; waived {
			allowed[f.Key()] = true
			continue
		}
		out = append(out, f)
	}
	for _, key := range s.LintAllow {
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
