// Compiled match programs.
//
// A hardware match stage is fixed-function: the compiler decides at load
// time which entries a packet can reach. So conditions are data (CondOp),
// and each pipe keeps one flat program per (pass, ingress-port class), with
// in_port and pass — which cannot change during Process — decided when it
// is built. Like a Tofino MAT building one key from PHV fields, a step tests
// its guard with one mask-and-compare on a flags word Process derives from
// the PHV (drop, recirc, l4, pp.valid, pp.enabled, pp.op, cr.valid) and one
// per metadata word it names. Residual ops keep what the key cannot say:
// runtime parameters (never folded: their cell is loaded on every packet),
// ne on a many-valued field, constants outside a lane, a contradiction, and
// the CRC-derived tag_valid fields, tested last so the CRC stays lazy. A
// run of consecutive steps with identical guards shares one evaluation,
// because a failed guard means no action ran and the PHV those guards read
// is unchanged. A run of block moves (move.go) under one guard goes further
// and becomes one step (fuseMoves): a move writes register cells and
// park-region bytes, which no guard can read, so the guard that admitted
// the first admits them all.
package rmt

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// condKind indexes condFields; the two prefixed families follow the named
// fields.
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

// condFields is the condition vocabulary, indexed by kind: each field's
// name, what it loads, its lane in the flags word when it has one, and — for
// fields of an optional header — that header and the value the field takes
// when it is absent. It is the one table LookupField resolves against and
// the README documents.
var condFields = [...]struct {
	name, doc string
	lane      uint32
	hdr       Header
	absent    int64
}{
	condInPort:     {name: "in_port", doc: "ingress port"},
	condPass:       {name: "pass", doc: "recirculation pass count"},
	condDrop:       {name: "drop", doc: "1 when the packet is already marked for drop", lane: flagDrop},
	condRecirc:     {name: "recirc", doc: "1 when a recirculation request is pending", lane: flagRecirc},
	condL4:         {name: "l4", doc: "IP protocol of the parsed transport (17 UDP, 6 TCP, 0 none)", lane: 0xff << laneL4},
	condPPValid:    {name: "pp.valid", doc: "1 when a PayloadPark header is present", lane: flagPPValid, hdr: HeaderPP},
	condPPEnabled:  {name: "pp.enabled", doc: "1 when a PP header is present with ENB set", lane: flagPPEnabled, hdr: HeaderPP},
	condPPOp:       {name: "pp.op", doc: "PP opcode (0 merge, 1 explicit drop; -1 when no header)", lane: 0xff << lanePPOp, hdr: HeaderPP, absent: -1},
	condPPTagValid: {name: "pp.tag_valid", doc: "1 when the PP tag's CRC seals its contents", hdr: HeaderPP},
	condCRValid:    {name: "cr.valid", doc: "1 when a compression header is present", lane: flagCRValid, hdr: HeaderCR},
	condCRTagValid: {name: "cr.tag_valid", doc: "1 when the CR tag's CRC seals its contents", hdr: HeaderCR},
	condMeta:       {name: "meta.<name>", doc: "user metadata word, by well-known name or decimal index"},
	condParam:      {name: "param.<name>", doc: "runtime parameter (loaded per packet)"},
}

// Field is a condition field resolved against the vocabulary.
type Field struct {
	kind  condKind
	word  uint8  // metadata word (condMeta)
	param string // runtime parameter name (condParam)
}

// LookupField resolves a condition field by name. It is the one resolver:
// prog resolves every spec condition through it, once.
func LookupField(name string) (Field, error) {
	for k := condInPort; k < condMeta; k++ {
		if condFields[k].name == name {
			return Field{kind: k}, nil
		}
	}
	if word, ok := strings.CutPrefix(name, "meta."); ok {
		idx := slices.Index(metaNames[:], word)
		if idx < 0 {
			if n, err := strconv.Atoi(word); err == nil && n >= 0 && n < MetaWords {
				idx = n
			}
		}
		if idx < 0 || word == "" {
			return Field{}, fmt.Errorf("unknown condition field %q: no such metadata word (and not an index below %d)", name, MetaWords)
		}
		return Field{kind: condMeta, word: uint8(idx)}, nil
	}
	if param, ok := strings.CutPrefix(name, "param."); ok {
		return Field{kind: condParam, param: param}, nil
	}
	return Field{}, fmt.Errorf("unknown condition field %q", name)
}

// String returns the field's canonical name.
func (f Field) String() string {
	switch f.kind {
	case condMeta:
		if name := metaNames[f.word]; name != "" {
			return "meta." + name
		}
		return "meta." + strconv.Itoa(int(f.word))
	case condParam:
		return "param." + f.param
	}
	return condFields[f.kind].name
}

// MetaWord returns the metadata word a meta.<name> field loads.
func (f Field) MetaWord() (int, bool) { return int(f.word), f.kind == condMeta }

// RuntimeParam returns the runtime parameter a param.<name> field loads.
func (f Field) RuntimeParam() (string, bool) { return f.param, f.kind == condParam }

// Cond is one match condition on a PHV field: Field == Value, or != when Ne.
// Conditions in a rule AND together (first-match-fires across rules
// supplies OR).
type Cond struct {
	Field Field
	Ne    bool
	Value int64
}

// Proves reports whether a packet that satisfies the condition must carry
// header h: the field belongs to h and the condition excludes the value the
// field takes when h is absent.
func (c Cond) Proves(h Header) bool {
	f := &condFields[c.Field.kind]
	return h != NoHeader && f.hdr == h && (c.Value == f.absent) == c.Ne
}

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

// CompileConds appends a conjunction of conditions, bound into ops, to dst.
// Evaluation short-circuits left to right, so cheap guards should come
// first; in_port and pass conditions are moved to the front, where Compile
// elides them. runtime holds the storage cells of the program's runtime
// parameters (nil when no condition names one).
func CompileConds(dst []CondOp, conds []Cond, runtime map[string]*uint32) ([]CondOp, error) {
	n := len(dst)
	for _, c := range conds {
		op := CondOp{kind: c.Field.kind, ne: c.Ne, idx: c.Field.word, val: c.Value}
		if c.Field.kind == condParam {
			if op.cell = runtime[c.Field.param]; op.cell == nil {
				return nil, fmt.Errorf("rmt: unknown runtime parameter %q", c.Field.param)
			}
		}
		dst = append(dst, op)
	}
	slices.SortStableFunc(dst[n:], func(a, b CondOp) int { return int(b2i(b.static()) - b2i(a.static())) })
	return dst, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// load reads a residual op's field from the PHV. Static ops never get here.
func (c *CondOp) load(p *PHV) int64 {
	switch c.kind {
	case condDrop:
		return b2i(p.Drop)
	case condRecirc:
		return b2i(p.Recirc)
	case condL4:
		return int64(l4(p.Pkt))
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

// The flags word: one bit per one-bit field, and an 8-bit lane each for l4
// (the IP protocol) and pp.op (0 without a PP header, which pp.valid tells
// apart).
const (
	flagDrop uint32 = 1 << iota
	flagRecirc
	flagPPValid
	flagPPEnabled
	flagCRValid

	laneL4   = 8
	lanePPOp = 16
)

// flagsOf derives the flags word from the PHV.
//
//pp:zeroalloc
func flagsOf(p *PHV) uint32 {
	pkt := p.Pkt
	w := uint32(b2i(p.Drop))*flagDrop | uint32(b2i(p.Recirc))*flagRecirc | uint32(b2i(pkt.CR != nil))*flagCRValid |
		l4(pkt)<<laneL4
	if pkt.PP != nil {
		w |= flagPPValid | uint32(b2i(pkt.PP.Enabled))*flagPPEnabled | uint32(pkt.PP.Op)<<lanePPOp
	}
	return w
}

// l4 is the IP protocol of the parsed transport, 0 for none.
func l4(pkt *packet.Packet) uint32 {
	switch {
	case pkt.UDP != nil:
		return uint32(packet.IPProtoUDP)
	case pkt.TCP != nil:
		return uint32(packet.IPProtoTCP)
	}
	return 0
}

// packed returns the op as a test on the flags word, ok false when the word
// cannot express it: the field has no lane, the constant lies outside the
// lane, or the op is ne on a lane wider than one bit.
func (c *CondOp) packed() (mask, val uint32, ok bool) {
	mask = condFields[c.kind].lane
	v, shift := c.val, bits.TrailingZeros32(mask)
	if c.ne && mask == 1<<shift {
		v = 1 - v // ne on one bit is eq on the other value
	}
	if mask == 0 || c.ne && mask != 1<<shift || v < 0 || v > int64(mask>>shift) {
		return 0, 0, false
	}
	val = uint32(v) << shift
	if c.kind == condPPOp { // the lane reads 0 without a header too
		mask, val = mask|flagPPValid, val|flagPPValid
	}
	return mask, val, true
}

// metaTest tests one metadata word: Meta[word]&mask == val. The zero test
// holds for every PHV.
type metaTest struct {
	word      uint8
	mask, val uint32
}

// guard is a rule's conditions minus the static ones, compiled: the packed
// test flags&mask == val, up to two metadata-word tests held inline, then
// the residual ops.
type guard struct {
	mask, val uint32
	meta      [2]metaTest
	resid     []CondOp
}

// packGuard compiles ops into a guard. A condition that contradicts an
// earlier one on its lane, or tests a metadata word again or a third one,
// stays residual and is decided there.
func packGuard(ops []CondOp) guard {
	var g guard
	var crc []CondOp
	n := 0 // metadata words tested
	for _, c := range ops {
		mask, val, ok := c.packed()
		switch {
		case ok && g.mask&mask&(g.val^val) == 0:
			g.mask, g.val = g.mask|mask, g.val|val
		case c.kind == condMeta && !c.ne && uint64(c.val) <= 1<<32-1 && n < len(g.meta) &&
			!slices.ContainsFunc(g.meta[:n], func(t metaTest) bool { return t.word == c.idx }):
			g.meta[n] = metaTest{word: c.idx, mask: 1<<32 - 1, val: uint32(c.val)}
			n++
		case c.kind == condPPTagValid || c.kind == condCRTagValid:
			crc = append(crc, c)
		default:
			g.resid = append(g.resid, c)
		}
	}
	g.resid = append(g.resid, crc...)
	return g
}

func (g *guard) equal(o *guard) bool {
	return g.mask == o.mask && g.val == o.val && g.meta == o.meta && slices.Equal(g.resid, o.resid)
}

// step is one rule of a compiled program, or a fused run of block moves:
// then move is set and rule and mat are those of the run's last move.
type step struct {
	onHit  int32 // next step after a hit: past this MAT (first match fires)
	onMiss int32 // next step after a miss: past the run of identical guards
	guard
	rule *Rule
	mat  *MAT
	move *moveRun
}

// fuseMoves rewrites steps in place so that every block move is a move
// step, and every maximal run of moves that can share one — consecutive
// steps of one direction under equal guards, each the first step of its own
// MAT, so no jump lands inside the run and first-match-fires cannot
// suppress part of it — is a single one. The one effect of a move a guard
// can read is its DropNoParkRegion drop, which a run takes on its whole
// reach at once: step by step, the moves behind the one that dropped would
// drop again or miss. The run's hit counts follow step-by-step execution
// too: a hit credits every rule of the run, and a drop for want of a park
// region credits only the first when the guard requires drop == 0, every
// rule otherwise. It returns the shortened program.
func fuseMoves(steps []step) []step {
	out := steps[:0]
	for i := 0; i < len(steps); {
		j := i + 1
		if dir := steps[i].rule.Move.Dir; dir != NoMove {
			if i == 0 || steps[i-1].mat != steps[i].mat {
				for j < len(steps) && steps[j].rule.Move.Dir == dir && steps[j].mat != steps[j-1].mat &&
					steps[j].guard.equal(&steps[i].guard) {
					j++
				}
			}
			steps[j-1].move = newMoveRun(steps[i:j])
		}
		out = append(out, steps[j-1])
		i = j
	}
	return out
}

// reaches reports whether the step's rule can still match on pass and port
// class (0 is "any port no rule names", i+1 is ports[i]) once its static
// conditions are decided.
func (s *step) reaches(pass, class int, ports []PortID) bool {
	for _, op := range s.rule.Conds {
		if !op.static() {
			break
		}
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
	for _, m := range p.mats {
		for i := range m.Rules {
			r := &m.Rules[i]
			n := 0
			for ; n < len(r.Conds) && r.Conds[n].static(); n++ {
				op := r.Conds[n]
				if port := PortID(op.val); op.kind == condInPort && int64(port) == op.val && !slices.Contains(p.ports, port) {
					p.ports = append(p.ports, port)
				}
			}
			all = append(all, step{guard: packGuard(r.Conds[n:]), rule: r, mat: m})
		}
	}
	slices.Sort(p.ports)
	p.classOf = p.classOf[:0]
	for i, port := range p.ports {
		p.classOf = append(p.classOf, make([]int32, int(port)+1-len(p.classOf))...)
		p.classOf[port] = int32(i + 1)
	}
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
		steps := fuseMoves(arena[start:])
		arena = arena[:start+len(steps)]
		steps = steps[:len(steps):len(steps)]
		for i := len(steps) - 1; i >= 0; i-- {
			s := &steps[i]
			s.onHit, s.onMiss = int32(i+1), int32(i+1)
			if i+1 < len(steps) && steps[i+1].mat == s.mat {
				s.onHit = steps[i+1].onHit
			}
			if i+1 < len(steps) && steps[i+1].guard.equal(&s.guard) {
				s.onMiss = steps[i+1].onMiss
			}
		}
		p.progs[pi] = steps
	}
}
