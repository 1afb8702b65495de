package prog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// The naive oracle: the table-program semantics with no compilation at all.
// It walks every table of a pipe in stage order and every entry in order,
// evaluates every condition by field name, and fires the first entry of each
// table whose conditions all hold, over stand-alone registers of its own and
// with a block move spelled as the one-cell RMW it declares (naiveMove). It
// is the reference rmt's compiled match programs (per-port, per-pass,
// fail-skip, fused move runs over the banked registers) are held against,
// and the first brick of ROADMAP item 5's reference interpreter. The
// production load reports which of its entries fired through its per-entry
// hit counts (hitLog), so the program checked is the one that runs.

// oracleEntry is one entry as the oracle sees it: resolved conditions and a
// one-rule pipe that runs the entry's action against the twin's registers.
type oracleEntry struct {
	id    string // table/entry
	conds []oracleCond
	fire  *rmt.Pipeline
}

// oracleCond is a condition as the spec wrote it, with its value resolved.
type oracleCond struct {
	field, op string
	val       int64
}

type oracle struct {
	inst   *Instance // runtime parameters and counters; its registers go unused
	regs   map[string]*rmt.Register
	tables map[string][][]oracleEntry // pipe -> tables in stage order
	fired  []string
}

// naiveMove is a block move as one stage's stateful ALU performs it: one RMW
// on the cell meta.tbl_idx picks, moving block k of the park region.
func naiveMove(dir rmt.MoveDir, block, w int) func(*rmt.Ctx) {
	return func(c *rmt.Ctx) {
		park := c.PHV.Park
		if len(park) < (block+1)*w {
			c.PHV.MarkDrop(rmt.DropNoParkRegion)
			return
		}
		c.RMW(int(c.PHV.Meta[rmt.MetaTableIndex]), func(cell []byte) {
			if dir == rmt.MoveStore {
				copy(cell, park[block*w:(block+1)*w])
			} else {
				copy(park[block*w:(block+1)*w], cell)
				clear(cell)
			}
		})
	}
}

func newOracle(t *testing.T, inst *Instance) *oracle {
	o := &oracle{inst: inst, regs: map[string]*rmt.Register{}, tables: map[string][][]oracleEntry{}}
	// Stand-alone registers, one dense array each, on pipes of the oracle's
	// own: what Load's bank must be indistinguishable from.
	homes := map[string]*rmt.Pipeline{}
	for i := range inst.prog.regs {
		r := &inst.prog.regs[i]
		pipe := pipeName(r.spec.Pipe)
		if homes[pipe] == nil {
			homes[pipe] = rmt.NewPipeline("oracle/" + pipe)
		}
		o.regs[r.role] = rmt.NewRegister(r.spec.Stage, r.name, int(r.width), int(r.cells))
		mustPlace(rmt.Layout{Pipe: homes[pipe], Banks: [][]*rmt.Register{{o.regs[r.role]}}})
	}
	for stage := 0; stage < rmt.StageCount; stage++ {
		for ti := range inst.prog.tables {
			tbl := inst.prog.tables[ti].spec
			if tbl.Stage != stage {
				continue
			}
			var entries []oracleEntry
			for ei := range tbl.Entries {
				e := &tbl.Entries[ei]
				action, mv, err := inst.prog.tables[ti].entries[ei].binding.Build(inst.runtime, inst.counters)
				if err != nil {
					t.Fatalf("oracle: %s/%s: %v", tbl.Name, e.Name, err)
				}
				if mv.Dir != rmt.NoMove {
					action = naiveMove(mv.Dir, mv.Block, mv.Bytes)
				}
				oe := oracleEntry{id: inst.prog.tables[ti].name + "/" + e.Name, fire: rmt.NewPipeline("oracle/" + e.Name)}
				for _, c := range e.Match {
					v, _ := c.Value.resolve(inst.prog.params)
					oe.conds = append(oe.conds, oracleCond{field: c.Field, op: c.Op, val: v})
				}
				// Only the action is borrowed: an unconditional rule bound to
				// the oracle's register, so firing goes through Ctx.RMW's checks.
				mustPlace(rmt.Layout{Pipe: oe.fire, MATs: []*rmt.MAT{{Name: oe.id, Stage: stage, Reg: o.regs[tbl.Register],
					Rules: []rmt.Rule{{Name: e.Name, Action: action}}}}})
				entries = append(entries, oe)
			}
			o.tables[pipeName(tbl.Pipe)] = append(o.tables[pipeName(tbl.Pipe)], entries)
		}
	}
	return o
}

// mustPlace places a hand-built piece of a test pipe; the pieces are a
// loaded spec's own, so a refusal is the test's bug.
func mustPlace(l rmt.Layout) {
	if err := rmt.Place(l); err != nil {
		panic(err)
	}
}

// field reads a condition field by name.
func (o *oracle) field(name string, p *rmt.PHV) int64 {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch name {
	case "in_port":
		return int64(p.InPort)
	case "pass":
		return int64(p.Pass)
	case "drop":
		return b(p.Drop)
	case "recirc":
		return b(p.Recirc)
	case "l4":
		switch {
		case p.Pkt.UDP != nil:
			return 17
		case p.Pkt.TCP != nil:
			return 6
		}
		return 0
	case "pp.valid":
		return b(p.Pkt.PP != nil)
	case "pp.enabled":
		return b(p.Pkt.PP != nil && p.Pkt.PP.Enabled)
	case "pp.op":
		if p.Pkt.PP == nil {
			return -1
		}
		return int64(p.Pkt.PP.Op)
	case "pp.tag_valid":
		return b(p.Pkt.PP != nil && p.Pkt.PP.Tag.Valid())
	case "cr.valid":
		return b(p.Pkt.CR != nil)
	case "cr.tag_valid":
		return b(p.Pkt.CR != nil && p.Pkt.CR.Tag.Valid())
	}
	if strings.HasPrefix(name, "meta.") {
		f, _ := rmt.LookupField(name)
		idx, _ := f.MetaWord()
		return int64(p.Meta[idx])
	}
	v, _ := o.inst.Runtime(strings.TrimPrefix(name, "param."))
	return int64(v)
}

// process is the oracle's Pipeline.Process for the named pipe.
func (o *oracle) process(pipe string, p *rmt.PHV) {
	o.fired = o.fired[:0]
	for _, entries := range o.tables[pipe] {
		for i := range entries {
			e := &entries[i]
			hit := true
			for _, c := range e.conds {
				if (o.field(c.field, p) == c.val) == (c.op == "ne") {
					hit = false
					break
				}
			}
			if hit {
				o.fired = append(o.fired, e.id)
				e.fire.Process(p)
				break
			}
		}
	}
}

// hitLog reads what a loaded program fired from its per-entry hit counts:
// every entry of its placed tables, in the oracle's stage order.
type hitLog struct {
	ids   []string // table/entry
	rules []*rmt.Rule
	seen  []uint64 // each rule's hits when last read
}

func newHitLog(inst *Instance) *hitLog {
	tables := slices.Clone(inst.Tables())
	slices.SortStableFunc(tables, func(a, b *rmt.MAT) int { return a.Stage - b.Stage })
	h := &hitLog{}
	for _, m := range tables {
		for i := range m.Rules {
			h.ids = append(h.ids, m.Name+"/"+m.Rules[i].Name)
			h.rules = append(h.rules, &m.Rules[i])
		}
	}
	h.seen = make([]uint64, len(h.rules))
	return h
}

// fired lists the entries whose counts moved since the last call, one id
// per fire.
func (h *hitLog) fired() []string {
	var out []string
	for i, r := range h.rules {
		for ; h.seen[i] < r.Hits(); h.seen[i]++ {
			out = append(out, h.ids[i])
		}
	}
	return out
}

const (
	oracleSlots = 8 // small tables: claims collide, evict and go stale
	oracleSplit = 1
	oracleMerge = 2
)

// randPHV draws one PHV: any port, either pass, every header and flag state
// a table can test. Two generators seeded alike yield twin PHVs that share
// no memory. Indexes stay inside the tables, so no action can violate the
// hardware model — a panic is not a match difference; the park region holds
// all 48 payload blocks or, one time in eight, is absent (a block move then
// drops the packet).
func randPHV(r *rand.Rand) *rmt.PHV {
	ft := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 0, 0, 2},
		SrcPort: uint16(r.Intn(4)), DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	b := packet.NewBuilder(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	id := uint16(r.Uint32()) // the payload follows the id: each PHV parks its own bytes
	var pkt *packet.Packet
	switch r.Intn(6) {
	case 0:
		pkt = b.UDP(ft, 600, id)
		pkt.UDP = nil
	case 1, 2:
		ft.Protocol = packet.IPProtoTCP
		pkt = b.TCP(ft, 600, 7, id)
	default:
		pkt = b.UDP(ft, 600, id)
	}
	tag := func() packet.Tag {
		tag := packet.Tag{TableIndex: uint16(r.Intn(oracleSlots)), Clock: uint16(1 + r.Intn(3))}.Seal()
		if r.Intn(6) == 0 {
			tag.CRC++
		}
		return tag
	}
	switch r.Intn(5) {
	case 0:
		pkt.SetPP(packet.PPHeader{})
	case 1, 2:
		pkt.SetPP(packet.PPHeader{Enabled: true, Op: packet.PPOp(r.Intn(2)), Tag: tag()})
	}
	if r.Intn(2) == 0 {
		pkt.SetCR(packet.CRHeader{Proto: packet.IPProtoUDP, Tag: tag()})
	}
	phv := &rmt.PHV{
		Pkt:    pkt,
		InPort: []rmt.PortID{oracleSplit, oracleSplit, oracleMerge, oracleMerge, 3, 40}[r.Intn(6)],
		Pass:   r.Intn(4) / 3,
		Drop:   r.Intn(6) == 0,
		Recirc: r.Intn(8) == 0,
	}
	for i := range phv.Meta {
		phv.Meta[i] = uint32(r.Intn(3))
	}
	phv.Meta[rmt.MetaTableIndex] = uint32(r.Intn(oracleSlots))
	phv.Meta[rmt.MetaCompTableIndex] = uint32(r.Intn(oracleSlots))
	if r.Intn(2) == 0 {
		pkt.IP.Marshal(phv.HdrScratch[:packet.IPv4HeaderLen])
	}
	if r.Intn(8) != 0 {
		phv.Park = pkt.Payload[42 : 42+48*8]
	}
	return phv
}

func loadTwin(t *testing.T, spec *Spec) (*Instance, map[string]*rmt.Pipeline) {
	t.Helper()
	pipes := map[string]*rmt.Pipeline{"ingress": rmt.NewPipeline("ingress")}
	opts := LoadOptions{Pipe: pipes["ingress"], Params: map[string]int64{"split_port": oracleSplit, "merge_port": oracleMerge}}
	if spec.UsesRecircPipe() {
		pipes["recirc"] = rmt.NewPipeline("recirc")
		opts.RecircPipe = pipes["recirc"]
	}
	for _, name := range []string{"slots", "comp_slots"} {
		if _, ok := spec.Params[name]; ok {
			opts.Params[name] = oracleSlots
		}
	}
	inst, err := Load(spec, opts)
	if err != nil {
		t.Fatalf("load %s: %v", spec.Name, err)
	}
	return inst, pipes
}

// TestCompiledMatchesOracle drives seeded random PHVs through the oracle and
// the production load of each spec — block moves fused, registers banked —
// which must leave the oracle's PHV, and byte-identical registers and
// counters, after every packet. Runtime knobs flip between packets, and
// either pipe runs either pass, so the recirculation pipe's 28-block
// second-pass run is covered. Which entry fires is the exhaustive check's;
// here the production load's hit counts show only that every entry fired.
func TestCompiledMatchesOracle(t *testing.T) {
	specs := committedSpecs(t)
	n := 30_000 // x4 specs: 120k PHVs
	if testing.Short() {
		n = 3_000
	}
	for si, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			fused, fusedPipes := loadTwin(t, spec)
			twin, _ := loadTwin(t, spec)
			o := newOracle(t, twin)
			pipeNames := sortedKeys(fusedPipes)

			seed := int64(1000 + si)
			driver := rand.New(rand.NewSource(seed))
			rf, rb := rand.New(rand.NewSource(^seed)), rand.New(rand.NewSource(^seed))
			for i := 0; i < n; i++ {
				if driver.Intn(40) == 0 {
					se, me := uint32(driver.Intn(2)), uint32(1+driver.Intn(3))
					for _, inst := range []*Instance{fused, twin} {
						inst.SetRuntime(RTSplitEnabled, se)
						inst.SetRuntime(RTMaxExpiry, me)
					}
				}
				pipe := pipeNames[driver.Intn(len(pipeNames))]
				f, b := randPHV(rf), randPHV(rb)
				fusedPipes[pipe].Process(f)
				o.process(pipe, b)
				diff := stateDiff(fused, o)
				if !samePHV(f, b) {
					diff = fmt.Sprintf("final PHVs differ:\nfused  %+v\noracle %+v", f, b)
				}
				if diff != "" {
					t.Fatalf("packet %d (%s port %d pass %d, oracle fired %v): %s", i, pipe, b.InPort, b.Pass, o.fired, diff)
				}
			}
			for _, m := range fused.Tables() {
				for i := range m.Rules {
					if m.Rules[i].Hits() == 0 {
						t.Errorf("%s/%s never fired: the generator does not reach it", m.Name, m.Rules[i].Name)
					}
				}
			}
		})
	}
}

// stateDiff names the first counter or register cell of a compiled instance
// that differs from the oracle's, "" when none does.
func stateDiff(compiled *Instance, o *oracle) string {
	want := o.inst.Counters()
	for name, c := range compiled.counters {
		if a, b := c.Value(), want[name]; a != b {
			return fmt.Sprintf("counter %s: compiled %d, oracle %d", name, a, b)
		}
	}
	for role, reg := range compiled.regs {
		for c := 0; c < reg.Cells(); c++ {
			if a, b := reg.Snapshot(c), o.regs[role].Snapshot(c); !bytes.Equal(a, b) {
				return fmt.Sprintf("register %s cell %d: compiled %x, oracle %x", role, c, a, b)
			}
		}
	}
	return ""
}

// samePHV compares everything a table program can read or write.
func samePHV(a, b *rmt.PHV) bool {
	return a.InPort == b.InPort && a.Pass == b.Pass &&
		a.Drop == b.Drop && a.DropWhy == b.DropWhy && a.Recirc == b.Recirc &&
		a.Meta == b.Meta && a.HdrScratch == b.HdrScratch &&
		bytes.Equal(a.Park, b.Park) && reflect.DeepEqual(a.Pkt, b.Pkt)
}
