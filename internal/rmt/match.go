// Compiled match programs.
//
// A hardware match stage is fixed-function: the compiler decides at load
// time which entries a packet can reach. So conditions are data (CondOp,
// one switch); each pipe keeps one flat program per (pass, ingress-port
// class), with in_port and pass — which cannot change during Process —
// decided when the program is built; and a run of consecutive steps with
// identical remaining guards shares one evaluation, because a failed guard
// means no action ran and the PHV those guards read is unchanged. Runtime
// parameters are never folded: their cell is loaded on every packet.
package rmt

import (
	"fmt"
	"slices"
	"strings"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// Cond is one declarative match condition on a PHV field. Conditions in a
// rule AND together (first-match-fires across rules supplies OR). Fields:
//
//	in_port        ingress port
//	pass           recirculation pass count
//	drop           1 when the packet is already marked for drop
//	recirc         1 when a recirculation request is pending
//	l4             IP protocol of the parsed transport (17 UDP, 6 TCP, 0 none)
//	pp.valid       1 when a PayloadPark header is present
//	pp.enabled     1 when a PP header is present with ENB set
//	pp.op          PP opcode (0 split, 1 merge; -1 when no header)
//	pp.tag_valid   1 when the PP tag's CRC seals its contents
//	cr.valid       1 when a compression header is present
//	cr.tag_valid   1 when the CR tag's CRC seals its contents
//	meta.<name>    user metadata word, by well-known name or decimal index
//	param.<name>   runtime parameter (loaded per packet)
//
// Op is "eq" (default when empty) or "ne".
type Cond struct {
	Field string
	Op    string
	Value int64
}

type condKind uint8

const (
	condInPort condKind = iota
	condPass
	condDrop
	condRecirc
	condL4
	condPPValid
	condPPEnabled
	condPPOp
	condPPTagValid
	condCRValid
	condCRTagValid
	condMeta
	condParam
)

// condFieldNames names every non-prefixed condition field, indexed by kind.
// It is the one list CompileConds resolves against and prog's linter
// validates against, so the two cannot drift.
var condFieldNames = [...]string{
	condInPort: "in_port", condPass: "pass", condDrop: "drop", condRecirc: "recirc", condL4: "l4",
	condPPValid: "pp.valid", condPPEnabled: "pp.enabled", condPPOp: "pp.op", condPPTagValid: "pp.tag_valid",
	condCRValid: "cr.valid", condCRTagValid: "cr.tag_valid",
}

// CondFields lists the non-prefixed condition fields ("meta.<name>" and
// "param.<name>" are the two prefixed families).
func CondFields() []string { return slices.Clone(condFieldNames[:]) }

// CondOp is one compiled condition: the field to load, the constant to
// compare it with, and the sense of the comparison.
type CondOp struct {
	kind condKind
	ne   bool
	idx  uint8 // metadata word (condMeta)
	val  int64
	cell *uint32 // runtime parameter storage (condParam)
}

// static reports whether the op is decided per program, not per packet.
func (c CondOp) static() bool { return c.kind <= condPass }

// CompileConds resolves a conjunction of conditions into ops. Evaluation
// short-circuits left to right, so cheap guards should come first; in_port
// and pass conditions are moved to the front, where Compile elides them.
// env may be nil when no condition names a runtime parameter.
func CompileConds(conds []Cond, env Env) ([]CondOp, error) {
	ops := make([]CondOp, len(conds))
	for i, c := range conds {
		op := &ops[i]
		op.val = c.Value
		switch c.Op {
		case "", "eq":
		case "ne":
			op.ne = true
		default:
			return nil, fmt.Errorf("rmt: unknown condition op %q (want eq or ne)", c.Op)
		}
		if k := slices.Index(condFieldNames[:], c.Field); k >= 0 {
			op.kind = condKind(k)
		} else if name, ok := strings.CutPrefix(c.Field, "meta."); ok {
			idx, ok := MetaIndex(name)
			if !ok {
				return nil, fmt.Errorf("rmt: unknown metadata word %q", name)
			}
			op.kind, op.idx = condMeta, uint8(idx)
		} else if name, ok := strings.CutPrefix(c.Field, "param."); ok {
			if env != nil {
				op.cell, _ = env.RuntimeParam(name)
			}
			if op.cell == nil {
				return nil, fmt.Errorf("rmt: unknown runtime parameter %q", name)
			}
			op.kind = condParam
		} else {
			return nil, fmt.Errorf("rmt: unknown condition field %q", c.Field)
		}
	}
	slices.SortStableFunc(ops, func(a, b CondOp) int { return int(b2i(b.static()) - b2i(a.static())) })
	return ops, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// load reads the op's field from the PHV. Static ops never get here.
func (c *CondOp) load(p *PHV) int64 {
	switch c.kind {
	case condDrop:
		return b2i(p.Drop)
	case condRecirc:
		return b2i(p.Recirc)
	case condL4:
		switch {
		case p.Pkt.UDP != nil:
			return int64(packet.IPProtoUDP)
		case p.Pkt.TCP != nil:
			return int64(packet.IPProtoTCP)
		}
		return 0
	case condPPValid:
		return b2i(p.Pkt.PP != nil)
	case condPPEnabled:
		return b2i(p.Pkt.PP != nil && p.Pkt.PP.Enabled)
	case condPPOp:
		if p.Pkt.PP == nil {
			return -1
		}
		return int64(p.Pkt.PP.Op)
	case condPPTagValid:
		return b2i(p.Pkt.PP != nil && p.Pkt.PP.Tag.Valid())
	case condCRValid:
		return b2i(p.Pkt.CR != nil)
	case condCRTagValid:
		return b2i(p.Pkt.CR != nil && p.Pkt.CR.Tag.Valid())
	case condMeta:
		return int64(p.Meta[c.idx])
	}
	return int64(*c.cell)
}

// matches evaluates a guard against the PHV.
//
//pp:zeroalloc
func matches(guard []CondOp, p *PHV) bool {
	for i := range guard {
		if (guard[i].load(p) == guard[i].val) == guard[i].ne {
			return false
		}
	}
	return true
}

// step is one rule of a compiled program.
type step struct {
	guard  []CondOp // the rule's conditions minus the static ones
	rule   *Rule
	mat    *MAT
	onHit  int32 // next step after a hit: past this MAT (first match fires)
	onMiss int32 // next step after a miss: past the run of identical guards
}

// reaches reports whether the step's rule can still match on pass and port
// class (0 is "any port no rule names", i+1 is ports[i]) once its static
// conditions are decided.
func (s *step) reaches(pass, class int, ports []PortID) bool {
	for _, op := range s.rule.Conds[:len(s.rule.Conds)-len(s.guard)] {
		eq := int64(pass) == op.val
		if op.kind == condInPort {
			eq = class > 0 && int64(ports[class-1]) == op.val
		}
		if eq == op.ne {
			return false
		}
	}
	return true
}

// Compile rebuilds the pipe's match programs if a MAT was placed since the
// last build. prog.Load calls it once per loaded program; a hand-built pipe
// compiles on its first Process.
func (p *Pipeline) Compile() {
	if !p.dirty {
		return
	}
	p.dirty = false
	// Flatten the rules in stage order and collect the ports they name.
	p.ports = p.ports[:0]
	all := make([]step, 0, p.rules)
	for _, s := range p.stages {
		for _, m := range s.mats {
			for i := range m.Rules {
				r := &m.Rules[i]
				n := 0
				for ; n < len(r.Conds) && r.Conds[n].static(); n++ {
					op := r.Conds[n]
					if port := PortID(op.val); op.kind == condInPort && int64(port) == op.val && !slices.Contains(p.ports, port) {
						p.ports = append(p.ports, port)
					}
				}
				all = append(all, step{guard: r.Conds[n:], rule: r, mat: m})
			}
		}
	}
	slices.Sort(p.ports)
	// One program per (pass, port class), carved from one exactly sized
	// arena: most rules name a port, so most programs are short.
	classes := len(p.ports) + 1
	p.progs = make([][]step, maxPasses*classes)
	total := 0
	for pi := range p.progs {
		for i := range all {
			if all[i].reaches(pi/classes, pi%classes, p.ports) {
				total++
			}
		}
	}
	arena := make([]step, 0, total)
	for pi := range p.progs {
		start := len(arena)
		for i := range all {
			if all[i].reaches(pi/classes, pi%classes, p.ports) {
				arena = append(arena, all[i])
			}
		}
		steps := arena[start:len(arena):len(arena)]
		for i := len(steps) - 1; i >= 0; i-- {
			s := &steps[i]
			s.onHit, s.onMiss = int32(i+1), int32(i+1)
			if i+1 < len(steps) && steps[i+1].mat == s.mat {
				s.onHit = steps[i+1].onHit
			}
			if i+1 < len(steps) && slices.Equal(steps[i+1].guard, s.guard) {
				s.onMiss = steps[i+1].onMiss
			}
		}
		p.progs[pi] = steps
	}
}
