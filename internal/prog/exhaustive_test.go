package prog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// The exhaustive check: the compiled match programs against the naive
// oracle over every starting class, not a sample. A guard reads finitely
// many fields, each compared with finitely many constants, so a field's
// values fall into one class per constant named plus one "other"; every
// index and tag of the starting PHV selects one register slot, whose cells
// start empty, fresh (occupied under the packet's own clock) or stale
// (occupied under another), and the parser's park region is whole or absent
// (a block move then drops the packet). For each program — (spec, pipe, port
// class, pass) — every combination of the classes its guards can tell apart
// is one starting PHV, and the production load must fire the oracle's
// entries — read from its per-entry hit counts, fused move runs included —
// and leave its PHV, registers and counters.

// exSlot is the slot every table index and tag of a starting PHV selects,
// and the clock its tags carry.
const exSlot = 3

// regClasses are the starting states of the selected cells. A claim finds a
// fresh cell occupied (EXP 2 ages to 1) and a stale one claimable (EXP 1
// ages to 0); a release frees a fresh cell and misses a stale one.
var regClasses = [...]string{"empty", "fresh", "stale"}

// exState is one starting class, made concrete.
type exState struct {
	port         rmt.PortID
	pass         int
	drop, recirc bool
	l4           int64
	pp           *packet.PPHeader // nil: no PP header
	cr, crTagBad bool
	meta         [rmt.MetaWords]uint32
	runtime      map[string]uint32
	regs         int // index into regClasses
	noPark       bool
}

// axis is one dimension of the class product: the classes a field (or a
// header's fields together) can take, each with what it sets and its name.
type axis struct {
	classes []func(*exState)
	names   []string
}

// exField collects, per field a program's guards read, the constants they
// compare it with.
type exField struct {
	name   string
	consts []int64
}

// guardFields lists the fields the entries of pipe reachable on (port,
// pass) read, in first-read order, with the constants each is compared with.
func guardFields(inst *Instance, pipe string, port rmt.PortID, pass int) []exField {
	static := func(c rmt.Cond) (int64, bool) {
		switch c.Field.String() {
		case "in_port":
			return int64(port), true
		case "pass":
			return int64(pass), true
		}
		return 0, false
	}
	var out []exField
	for ti := range inst.prog.tables {
		tbl := &inst.prog.tables[ti]
		if pipeName(tbl.spec.Pipe) != pipe {
			continue
		}
	entries:
		for ei := range tbl.entries {
			conds := tbl.entries[ei].conds
			for _, c := range conds {
				if v, ok := static(c); ok && (v == c.Value) == c.Ne {
					continue entries
				}
			}
			for _, c := range conds {
				name := c.Field.String()
				if _, ok := static(c); ok {
					continue
				}
				i := slices.IndexFunc(out, func(f exField) bool { return f.name == name })
				if i < 0 {
					out = append(out, exField{name: name})
					i = len(out) - 1
				}
				if !slices.Contains(out[i].consts, c.Value) {
					out[i].consts = append(out[i].consts, c.Value)
				}
			}
		}
	}
	return out
}

// classValues is one value per class of a field compared with consts: each
// constant the field can take (in reports that), then the first of cands no
// constant names, if any.
func classValues(consts []int64, in func(int64) bool, cands []int64) []int64 {
	vals := slices.DeleteFunc(slices.Clone(consts), func(v int64) bool { return !in(v) })
	for _, v := range cands {
		if !slices.Contains(consts, v) {
			return append(vals, v)
		}
	}
	return vals
}

// upTo returns 0..n: among them a value no n constants name.
func upTo(n int) []int64 {
	out := make([]int64, n+1)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// classOf is the class of value v for a field compared with consts: the
// constant's index, or len(consts) for "other".
func classOf(consts []int64, v int64) int {
	if i := slices.Index(consts, v); i >= 0 {
		return i
	}
	return len(consts)
}

// scalarAxis is the axis of a field set directly.
func scalarAxis(f exField, in func(int64) bool, cands []int64, set func(*exState, int64)) axis {
	var a axis
	for _, v := range classValues(f.consts, in, cands) {
		a.classes = append(a.classes, func(s *exState) { set(s, v) })
		name := fmt.Sprintf("%s=%d", f.name, v)
		if !slices.Contains(f.consts, v) {
			name = fmt.Sprintf("%s=other(%d)", f.name, v)
		}
		a.names = append(a.names, name)
	}
	return a
}

// headerAxis is the axis of a header's fields together: of the candidate
// header states, the first of each combination of classes its read fields
// fall in.
func headerAxis(fields []exField, cands []func(*exState), names []string, read func(*exState) []int64) axis {
	var a axis
	seen := map[string]bool{}
	for i, c := range cands {
		var s exState
		c(&s)
		vals := read(&s)
		sig := ""
		for fi, f := range fields {
			if f.consts != nil {
				sig += fmt.Sprint(classOf(f.consts, vals[fi]), ",")
			}
		}
		if !seen[sig] {
			seen[sig] = true
			a.classes = append(a.classes, c)
			a.names = append(a.names, names[i])
		}
	}
	return a
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// classAxes turns the fields a program reads into the axes of its class
// product, in first-read order; a header's fields share one axis, and the
// park-region and register axes come last.
func classAxes(fields []exField) []axis {
	find := func(name string) exField {
		i := slices.IndexFunc(fields, func(f exField) bool { return f.name == name })
		if i < 0 {
			return exField{name: name}
		}
		return fields[i]
	}
	bit := func(v int64) bool { return v == 0 || v == 1 }
	word := func(v int64) bool { return v >= 0 && v < 1<<32 }
	protos := []int64{0, int64(packet.IPProtoTCP), int64(packet.IPProtoUDP)}
	var axes []axis
	pp, cr := false, false
	for _, f := range fields {
		switch name := f.name; {
		case name == "drop":
			axes = append(axes, scalarAxis(f, bit, upTo(1), func(s *exState, v int64) { s.drop = v == 1 }))
		case name == "recirc":
			axes = append(axes, scalarAxis(f, bit, upTo(1), func(s *exState, v int64) { s.recirc = v == 1 }))
		case name == "l4":
			axes = append(axes, scalarAxis(f, func(v int64) bool { return slices.Contains(protos, v) }, protos,
				func(s *exState, v int64) { s.l4 = v }))
		case strings.HasPrefix(name, "meta."):
			fld, _ := rmt.LookupField(name)
			w, _ := fld.MetaWord()
			axes = append(axes, scalarAxis(f, word, upTo(len(f.consts)), func(s *exState, v int64) { s.meta[w] = uint32(v) }))
		case strings.HasPrefix(name, "param."):
			p := strings.TrimPrefix(name, "param.")
			axes = append(axes, scalarAxis(f, word, upTo(len(f.consts)), func(s *exState, v int64) { s.runtime[p] = uint32(v) }))
		case strings.HasPrefix(name, "pp.") && !pp:
			pp = true
			axes = append(axes, ppAxis([]exField{find("pp.valid"), find("pp.enabled"), find("pp.op"), find("pp.tag_valid")}))
		case strings.HasPrefix(name, "cr.") && !cr:
			cr = true
			axes = append(axes, crAxis([]exField{find("cr.valid"), find("cr.tag_valid")}))
		}
	}
	park := axis{
		classes: []func(*exState){func(s *exState) { s.noPark = false }, func(s *exState) { s.noPark = true }},
		names:   []string{"park=whole", "park=absent"},
	}
	var regs axis
	for i, name := range regClasses {
		regs.classes = append(regs.classes, func(s *exState) { s.regs = i })
		regs.names = append(regs.names, "regs="+name)
	}
	return append(axes, park, regs)
}

// ppAxis enumerates the PP header: absent, or present enabled or not, with
// each opcode named plus one other, and a sealed or corrupted tag.
func ppAxis(fields []exField) axis {
	ops := classValues(fields[2].consts, func(v int64) bool { return v >= 0 && v <= 255 }, upTo(len(fields[2].consts)))
	cands := []func(*exState){func(s *exState) { s.pp = nil }}
	names := []string{"pp=absent"}
	for _, en := range []bool{false, true} {
		for _, op := range ops {
			for _, bad := range []bool{false, true} {
				cands = append(cands, func(s *exState) {
					tag := packet.Tag{TableIndex: exSlot, Clock: exSlot}.Seal()
					if bad {
						tag.CRC++
					}
					s.pp = &packet.PPHeader{Enabled: en, Op: packet.PPOp(op), Tag: tag}
				})
				names = append(names, fmt.Sprintf("pp={enabled=%d op=%d tag_valid=%d}", b2i(en), op, b2i(!bad)))
			}
		}
	}
	return headerAxis(fields, cands, names, func(s *exState) []int64 {
		if s.pp == nil {
			return []int64{0, 0, -1, 0}
		}
		return []int64{1, b2i(s.pp.Enabled), int64(s.pp.Op), b2i(s.pp.Tag.Valid())}
	})
}

// crAxis enumerates the compression header: absent, or present with a
// sealed or corrupted tag.
func crAxis(fields []exField) axis {
	cands := []func(*exState){
		func(s *exState) { s.cr = false },
		func(s *exState) { s.cr, s.crTagBad = true, false },
		func(s *exState) { s.cr, s.crTagBad = true, true },
	}
	names := []string{"cr=absent", "cr={tag_valid=1}", "cr={tag_valid=0}"}
	return headerAxis(fields, cands, names, func(s *exState) []int64 {
		return []int64{b2i(s.cr), b2i(s.cr && !s.crTagBad)}
	})
}

// states enumerates the class product of axes, fewest axes off their first
// class first: the first failing state is a minimal failing class.
func states(axes []axis) [][]int {
	var out [][]int
	idx := make([]int, len(axes))
	for {
		out = append(out, slices.Clone(idx))
		i := 0
		for ; i < len(axes); i++ {
			if idx[i]++; idx[i] < len(axes[i].classes) {
				break
			}
			idx[i] = 0
		}
		if i == len(axes) {
			break
		}
	}
	weight := func(t []int) int {
		n := 0
		for _, k := range t {
			n += int(b2i(k != 0))
		}
		return n
	}
	slices.SortStableFunc(out, func(a, b []int) int { return weight(a) - weight(b) })
	return out
}

// phv builds the starting PHV of a state: a 600-byte frame whose table
// indexes and tags all select exSlot, its park region the 48 blocks past a
// 42-byte boundary or none. Calls on one state build twins that share no
// memory.
func (s *exState) phv() *rmt.PHV {
	ft := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 0, 0, 2},
		SrcPort: 1, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	b := packet.NewBuilder(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	var pkt *packet.Packet
	switch s.l4 {
	case 6:
		ft.Protocol = packet.IPProtoTCP
		pkt = b.TCP(ft, 600, 7, 1)
	case 0:
		pkt = b.UDP(ft, 600, 1)
		pkt.UDP = nil
	default:
		pkt = b.UDP(ft, 600, 1)
	}
	if s.pp != nil {
		pkt.SetPP(*s.pp)
	}
	if s.cr {
		tag := packet.Tag{TableIndex: exSlot, Clock: exSlot}.Seal()
		if s.crTagBad {
			tag.CRC++
		}
		pkt.SetCR(packet.CRHeader{Proto: packet.IPProtoUDP, Tag: tag})
	}
	phv := &rmt.PHV{Pkt: pkt, InPort: s.port, Pass: s.pass, Drop: s.drop, Recirc: s.recirc, Meta: s.meta}
	pkt.IP.Marshal(phv.HdrScratch[:packet.IPv4HeaderLen])
	if !s.noPark {
		phv.Park = pkt.Payload[42 : 42+48*8]
	}
	return phv
}

// exSide is one side under test: an instance, the pipes it runs on (none
// for the oracle's), its registers by role and a writer pipe per spec pipe
// that sets the cell a starting PHV selects to the side's register class.
type exSide struct {
	inst    *Instance
	pipes   map[string]*rmt.Pipeline
	regs    map[string]*rmt.Register
	writers []*rmt.Pipeline
	class   int
}

// cellOf is the cell a starting PHV selects in a register of cells cells: a
// one-cell index or clock register's only cell, exSlot of a table.
func cellOf(cells int) int {
	if cells == 1 {
		return 0
	}
	return exSlot
}

// newExSide writes registers the way the program's tables reach them: one
// RMW per register, from a MAT bound to it on a writer pipe of the side's
// own, since tests outside rmt can only read a cell directly.
func newExSide(inst *Instance, pipes map[string]*rmt.Pipeline, regs map[string]*rmt.Register) *exSide {
	side := &exSide{inst: inst, pipes: pipes, regs: regs}
	writers := map[string]*rmt.Pipeline{}
	for i := range inst.prog.regs {
		r := &inst.prog.regs[i]
		pipe, cells := pipeName(r.spec.Pipe), int(r.cells)
		if writers[pipe] == nil {
			writers[pipe] = rmt.NewPipeline("writer/" + pipe)
			side.writers = append(side.writers, writers[pipe])
		}
		mustPlace(rmt.Layout{Pipe: writers[pipe], MATs: []*rmt.MAT{{Name: r.name, Stage: r.spec.Stage, Reg: regs[r.role], Rules: []rmt.Rule{{
			Name:   "write",
			Action: func(c *rmt.Ctx) { c.RMW(cellOf(cells), func(cell []byte) { side.write(cells, cell) }) },
		}}}}})
	}
	return side
}

// write sets the selected cell of a register of cells cells to the side's
// class.
func (side *exSide) write(cells int, cell []byte) {
	clear(cell)
	switch {
	case cells == 1:
		// The advance publishes exSlot as index and clock.
		binary.BigEndian.PutUint64(cell, exSlot-1)
	case side.class > 0:
		// EXP and CLK lead the cell; a data cell holds them too.
		for j := range cell {
			cell[j] = byte(0xa0 + j)
		}
		exp, clk := uint32(2), uint32(exSlot)
		if side.class == 2 {
			exp, clk = 1, exSlot+1
		}
		binary.BigEndian.PutUint32(cell[0:], exp)
		binary.BigEndian.PutUint32(cell[4:], clk)
	}
}

// start writes the state's selected cells and runtime parameters.
func (side *exSide) start(s *exState) {
	side.class = s.regs
	for _, p := range side.writers {
		p.Process(&rmt.PHV{Pkt: &packet.Packet{}})
	}
	for name, v := range s.runtime {
		side.inst.SetRuntime(name, v)
	}
}

// exCheck is the exhaustive comparison of one spec: the production load and
// the oracle's, driven from the same starting classes.
type exCheck struct {
	spec         *Spec
	fused, naive *exSide
	hits         *hitLog
	o            *oracle
	states       int
}

func newExCheck(t *testing.T, spec *Spec) *exCheck {
	c := &exCheck{spec: spec}
	inst, pipes := loadTwin(t, spec)
	c.fused, c.hits = newExSide(inst, pipes, inst.regs), newHitLog(inst)
	inst, _ = loadTwin(t, spec)
	c.o = newOracle(t, inst)
	c.naive = newExSide(inst, nil, c.o.regs)
	return c
}

// run drives every starting class of one program and returns the first
// failure, with its class, or "".
func (c *exCheck) run(pipe string, port rmt.PortID, pass int) string {
	fields := guardFields(c.fused.inst, pipe, port, pass)
	axes := classAxes(fields)
	defaults := c.spec.Runtime
	for _, t := range states(axes) {
		s := exState{port: port, pass: pass, l4: 17, runtime: map[string]uint32{}}
		for name, v := range defaults {
			s.runtime[name] = v
		}
		s.meta[rmt.MetaTableIndex], s.meta[rmt.MetaClock] = exSlot, exSlot
		s.meta[rmt.MetaCompTableIndex], s.meta[rmt.MetaCompClock] = exSlot, exSlot
		var desc []string
		for ai, k := range t {
			axes[ai].classes[k](&s)
			desc = append(desc, axes[ai].names[k])
		}
		c.states++
		if diff := c.one(pipe, &s); diff != "" {
			return fmt.Sprintf("minimal failing class (%s port %d pass %d): %s\n%s", pipe, port, pass, strings.Join(desc, " "), diff)
		}
	}
	return ""
}

// one runs one starting state through both sides and compares them.
func (c *exCheck) one(pipe string, s *exState) string {
	for _, side := range []*exSide{c.fused, c.naive} {
		side.start(s)
	}
	f, b := s.phv(), s.phv()
	c.fused.pipes[pipe].Process(f)
	c.o.process(pipe, b)
	switch fired := c.hits.fired(); {
	case !slices.Equal(fired, c.o.fired):
		return fmt.Sprintf("compiled fired %v, oracle %v", fired, c.o.fired)
	case !samePHV(f, b):
		return fmt.Sprintf("fired %v; final PHVs differ:\nfused  %+v\noracle %+v", fired, f, b)
	}
	ctrs := c.o.inst.Counters()
	for name, ctr := range c.fused.inst.counters {
		if x, y := ctr.Value(), ctrs[name]; x != y {
			return fmt.Sprintf("fired %v; counter %s: fused %d, oracle %d", c.o.fired, name, x, y)
		}
	}
	for role, reg := range c.naive.regs {
		want, got := reg.Snapshot(cellOf(reg.Cells())), c.fused.regs[role].Snapshot(cellOf(reg.Cells()))
		if !bytes.Equal(got, want) {
			return fmt.Sprintf("fired %v; register %s: %x, oracle %x", c.o.fired, role, got, want)
		}
	}
	return ""
}

// unreachable are guardEdgeSpec's entries whose guards no PHV satisfies.
var unreachable = map[string]bool{"edge_op/op_300": true, "edge_drop/drop_2": true, "edge_drop/contradiction": true}

// committedSpecs are the four committed specs: the three built-in programs
// and the example compression spec file.
func committedSpecs(t *testing.T) []*Spec {
	blob, err := os.ReadFile("../../examples/policies/compress-spec.json")
	if err != nil {
		t.Fatal(err)
	}
	fromJSON := new(Spec)
	if err := json.Unmarshal(blob, fromJSON); err != nil {
		t.Fatal(err)
	}
	fromJSON.Name += "(json)"
	return append(BuiltinSpecs(), fromJSON)
}

// TestCompiledMatchesOracleExhaustively enumerates every starting class of
// every program of the four committed specs and of guardEdgeSpec.
func TestCompiledMatchesOracleExhaustively(t *testing.T) {
	for _, spec := range append(committedSpecs(t), guardEdgeSpec()) {
		t.Run(spec.Name, func(t *testing.T) {
			c := newExCheck(t, spec)
			for _, pipe := range sortedKeys(c.fused.pipes) {
				for _, port := range []rmt.PortID{oracleSplit, oracleMerge, 3} {
					for pass := 0; pass < 2; pass++ {
						if diff := c.run(pipe, port, pass); diff != "" {
							t.Fatal(diff)
						}
					}
				}
			}
			if diff := stateDiff(c.fused.inst, c.o); diff != "" {
				t.Fatalf("after %d states: %s", c.states, diff)
			}
			for i, id := range c.hits.ids {
				if c.hits.rules[i].Hits() == 0 && !unreachable[id] {
					t.Errorf("%s never fired from any starting class", id)
				}
			}
			t.Logf("%d starting classes", c.states)
		})
	}
}

// guardEdgeSpec is the compression spec plus tables whose guards sit on the
// edges of a packed match key: constants outside a field's lane (pp.op 300
// and -1, drop 2), ne on a many-valued field (l4, pp.op, a metadata word),
// contradictory conditions in one entry, a runtime parameter, ne on in_port,
// and actions that change the flags a later guard reads (attach and strip
// a PP header, request recirculation).
func guardEdgeSpec() *Spec {
	s := HeaderCompressSpec(CompressParams{CompressPort: 1, RestorePort: 2})
	s.Name = "guard-edges"
	res := ResourcesSpec{VLIWSlots: 2, TernXbarBits: 9, TCAMBytes: 424}
	cond := func(field, op string, v int64) CondSpec { return CondSpec{Field: field, Op: op, Value: Lit(v)} }
	drop := func(name, why string, match ...CondSpec) EntrySpec {
		return EntrySpec{Name: name, Match: match, Action: "drop",
			Counters: map[string]string{"count": name}, Reasons: map[string]string{"why": why}}
	}
	header := func(name, action string, match ...CondSpec) EntrySpec {
		return EntrySpec{Name: name, Match: match, Action: action, Counters: map[string]string{"count": name}}
	}
	// The compression parser declares no park region: a disabled header
	// sits right behind L4.
	absent := header("op_absent", "add_disabled_header", cond("pp.op", "", -1), cond("param.max_expiry", "", 1))
	absent.Params = map[string]ParamVal{"park_offset": Lit(0)}
	s.Tables = append(s.Tables,
		TableSpec{Name: "edge_op", Stage: 4, Resources: res, Entries: []EntrySpec{
			drop("op_300", "pp.op 300", cond("pp.op", "", 300)),
			absent,
		}},
		TableSpec{Name: "edge_l4", Stage: 5, Resources: res, Entries: []EntrySpec{{
			Name: "l4_ne", Action: "recirculate",
			Match: []CondSpec{cond("l4", "ne", 17), cond("pp.op", "", 0)},
		}}},
		TableSpec{Name: "edge_drop", Stage: 6, Resources: res, Entries: []EntrySpec{
			drop("drop_2", "drop 2", cond("drop", "", 2)),
			drop("contradiction", "drop 0 and 1", cond("drop", "", 0), cond("drop", "", 1)),
			header("recirc_seen", "strip_disabled_header", cond("recirc", "", 1), CondSpec{Field: "in_port", Op: "ne", Value: Ref("split_port")}),
		}},
		TableSpec{Name: "edge_ne", Stage: 7, Resources: res, Entries: []EntrySpec{
			drop("meta_ne", "meta ne", cond("meta.comp_claimed", "ne", 1), cond("pp.valid", "", 1), cond("pp.op", "ne", 1), cond("pp.tag_valid", "", 1)),
			drop("disabled", "pp disabled", cond("pp.enabled", "ne", 1), cond("pp.valid", "", 1)),
		}},
	)
	return s
}
