package rmt

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// A hand-built payload table: each moveMAT is one MAT with its own register,
// each moveRule one entry matching in_port == port and meta.7 == guard. A
// rule with no move direction is a plain action (it bumps meta.8), so a
// layout can put a foreign table between two moves.
type moveMAT struct {
	width, cells int
	bank         int // MATs with equal bank > 0 share one register bank
	rules        []moveRule
}

type moveRule struct {
	port   PortID
	guard  uint32
	move   Move
	noDrop bool // the entry also requires drop == 0, as the built-in loads do
}

const (
	movePortStore, movePortLoad = PortID(1), PortID(2)
	moveW                       = 8
	moveGuardWord               = 7
	moveMarkWord                = 8
)

// payloadMAT is the built-in spec's shape for block k: store on one port,
// load on the other, 8-byte cells.
func payloadMAT(k int) moveMAT {
	return moveMAT{width: moveW, cells: 16, bank: 1, rules: []moveRule{
		{port: movePortStore, guard: 1, move: Move{Dir: MoveStore, Block: k, Bytes: moveW}},
		{port: movePortLoad, guard: 2, move: Move{Dir: MoveLoad, Block: k, Bytes: moveW}},
	}}
}

// naiveMove is the move as one closure RMW per block, as every block ran
// before moves were data: the step-by-step reference.
func naiveMove(mv Move) func(*Ctx) {
	return func(c *Ctx) {
		park := c.PHV.Park
		if len(park) < (mv.Block+1)*mv.Bytes {
			c.PHV.MarkDrop(DropNoParkRegion)
			return
		}
		blk := park[mv.Block*mv.Bytes : (mv.Block+1)*mv.Bytes]
		c.RMW(int(c.PHV.Meta[MetaTableIndex]), func(cell []byte) {
			if mv.Dir == MoveStore {
				copy(cell, blk)
			} else {
				copy(blk, cell)
				clear(cell)
			}
		})
	}
}

// buildMovePipe places the layout two MATs per stage. Compiled as declared
// moves over banked registers when fused; otherwise as closures over
// stand-alone registers, which Compile never fuses. Every cell starts as the
// same seeded noise on both.
func buildMovePipe(t *testing.T, layout []moveMAT, fused bool) (*Pipeline, []*Register) {
	t.Helper()
	p := NewPipeline(fmt.Sprintf("moves/fused=%t", fused))
	regs := make([]*Register, len(layout))
	for i, m := range layout {
		if regs[i] != nil {
			continue
		}
		if !fused || m.bank == 0 {
			regs[i] = p.NewRegister(i/2, fmt.Sprintf("r%d", i), m.width, m.cells)
			continue
		}
		var group []BankRegister
		var members []int
		for j := i; j < len(layout); j++ {
			if layout[j].bank == m.bank {
				group = append(group, BankRegister{Stage: j / 2, Name: fmt.Sprintf("r%d", j), Width: layout[j].width})
				members = append(members, j)
			}
		}
		for k, reg := range p.NewRegisterBank(m.cells, group) {
			regs[members[k]] = reg
		}
	}
	noise := rand.New(rand.NewSource(99))
	for _, reg := range regs {
		for c := 0; c < reg.cells; c++ {
			noise.Read(reg.cell(c))
		}
	}
	for i, m := range layout {
		mat := &MAT{Name: fmt.Sprintf("m%d", i), Reg: regs[i]}
		for _, r := range m.rules {
			cs := []Cond{{Field: fld("in_port"), Value: int64(r.port)}, {Field: fld("meta.7"), Value: int64(r.guard)}}
			if r.noDrop {
				cs = append(cs, Cond{Field: fld("drop")})
			}
			rule := Rule{Name: fmt.Sprintf("m%d/%d", i, len(mat.Rules)), Conds: conds(t, cs...)}
			switch {
			case r.move.Dir == NoMove:
				rule.Action = func(c *Ctx) { c.PHV.Meta[moveMarkWord]++ }
			case fused:
				rule.Move = r.move
			default:
				rule.Action = naiveMove(r.move)
			}
			mat.Rules = append(mat.Rules, rule)
		}
		p.AddMAT(i/2, mat)
	}
	return p, regs
}

// hitVector lists every rule's hits in stage and MAT order.
func hitVector(p *Pipeline) []uint64 {
	var out []uint64
	for _, m := range p.mats {
		for i := range m.Rules {
			out = append(out, m.Rules[i].Hits())
		}
	}
	return out
}

// TestFusionBoundaries: layouts whose runs must not collapse into one copy
// compile to the step and copy counts stated, and end — PHV by PHV — in the
// state and the hit counts step-by-step execution over stand-alone
// registers ends in.
func TestFusionBoundaries(t *testing.T) {
	six := func(edit func(l []moveMAT)) []moveMAT {
		l := make([]moveMAT, 6)
		for k := range l {
			l[k] = payloadMAT(k)
		}
		if edit != nil {
			edit(l)
		}
		return l
	}
	plain := moveMAT{width: moveW, cells: 16, rules: []moveRule{{port: movePortStore, guard: 1}, {port: movePortLoad, guard: 2}}}
	for _, tc := range []struct {
		name        string
		layout      []moveMAT
		store, load []MoveShape // the move steps compiled for each port
	}{
		{
			name:   "adjacent registers, consecutive blocks: one copy",
			layout: six(nil),
			store:  []MoveShape{{Bytes: 48, Spans: 1}},
			load:   []MoveShape{{Load: true, Bytes: 48, Spans: 1}},
		},
		{
			name:   "a register with other cells lives in another bank",
			layout: six(func(l []moveMAT) { l[2].cells, l[2].bank = 32, 2 }),
			store:  []MoveShape{{Bytes: 48, Spans: 3}},
			load:   []MoveShape{{Load: true, Bytes: 48, Spans: 3}},
		},
		{
			name:   "a register wider than the block leaves slack in the row",
			layout: six(func(l []moveMAT) { l[2].width = 16 }),
			store:  []MoveShape{{Bytes: 48, Spans: 3}},
			load:   []MoveShape{{Load: true, Bytes: 48, Spans: 3}},
		},
		{
			name: "blocks out of order",
			layout: six(func(l []moveMAT) {
				for r := range l[2].rules {
					l[2].rules[r].move.Block, l[3].rules[r].move.Block = 3, 2
				}
			}),
			store: []MoveShape{{Bytes: 48, Spans: 4}},
			load:  []MoveShape{{Load: true, Bytes: 48, Spans: 4}},
		},
		{
			name:   "a stand-alone register among banked ones",
			layout: six(func(l []moveMAT) { l[4].bank = 0 }),
			store:  []MoveShape{{Bytes: 48, Spans: 3}},
			load:   []MoveShape{{Load: true, Bytes: 48, Spans: 3}},
		},
		{
			name:   "a foreign table between two moves",
			layout: append(append(six(nil)[:3:3], plain), six(nil)[3:]...),
			store:  []MoveShape{{Bytes: 24, Spans: 1}, {Bytes: 24, Spans: 1}},
			load:   []MoveShape{{Load: true, Bytes: 24, Spans: 1}, {Load: true, Bytes: 24, Spans: 1}},
		},
		{
			name: "two move entries in one MAT: first match fires",
			layout: six(func(l []moveMAT) {
				l[2].rules = []moveRule{l[2].rules[0], {port: movePortStore, guard: 1, move: Move{Dir: MoveStore, Block: 5, Bytes: moveW}}, l[2].rules[1]}
			}),
			store: []MoveShape{{Bytes: 24, Spans: 1}, {Bytes: 8, Spans: 1}, {Bytes: 24, Spans: 1}},
			load:  []MoveShape{{Load: true, Bytes: 48, Spans: 1}},
		},
		{
			name: "a move behind another entry of its MAT",
			layout: six(func(l []moveMAT) {
				l[2].rules = append([]moveRule{{port: movePortStore, guard: 3}, {port: movePortLoad, guard: 3}}, l[2].rules...)
			}),
			store: []MoveShape{{Bytes: 16, Spans: 1}, {Bytes: 8, Spans: 1}, {Bytes: 24, Spans: 1}},
			load:  []MoveShape{{Load: true, Bytes: 16, Spans: 1}, {Load: true, Bytes: 8, Spans: 1}, {Load: true, Bytes: 24, Spans: 1}},
		},
		{
			name: "loads that require drop == 0: one copy, credited as step by step",
			layout: six(func(l []moveMAT) {
				for k := range l {
					l[k].rules[1].noDrop = true
				}
			}),
			store: []MoveShape{{Bytes: 48, Spans: 1}},
			load:  []MoveShape{{Load: true, Bytes: 48, Spans: 1}},
		},
		{
			name:   "guards differing in one constant",
			layout: six(func(l []moveMAT) { l[3].rules[0].guard, l[3].rules[1].guard = 3, 3 }),
			store:  []MoveShape{{Bytes: 24, Spans: 1}, {Bytes: 8, Spans: 1}, {Bytes: 16, Spans: 1}},
			load:   []MoveShape{{Load: true, Bytes: 24, Spans: 1}, {Load: true, Bytes: 8, Spans: 1}, {Load: true, Bytes: 16, Spans: 1}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fused, fusedRegs := buildMovePipe(t, tc.layout, true)
			stepwise, stepRegs := buildMovePipe(t, tc.layout, false)
			if got := fused.MoveSteps(0, movePortStore); !reflect.DeepEqual(got, tc.store) {
				t.Errorf("store port compiles to %+v, want %+v", got, tc.store)
			}
			if got := fused.MoveSteps(0, movePortLoad); !reflect.DeepEqual(got, tc.load) {
				t.Errorf("load port compiles to %+v, want %+v", got, tc.load)
			}
			if got := stepwise.MoveSteps(0, movePortStore); got != nil {
				t.Fatalf("the step-by-step reference compiled move steps: %+v", got)
			}

			r := rand.New(rand.NewSource(int64(len(tc.name))))
			for i := 0; i < 10_000; i++ {
				a, b := PHV{Pkt: &packet.Packet{}}, PHV{Pkt: &packet.Packet{}}
				a.InPort = []PortID{movePortStore, movePortLoad, 3}[r.Intn(3)]
				a.Meta[moveGuardWord] = uint32(r.Intn(4))
				a.Meta[MetaTableIndex] = uint32(r.Intn(16))
				a.Drop = r.Intn(16) == 0
				b.InPort, b.Meta, b.Drop = a.InPort, a.Meta, a.Drop
				if r.Intn(8) != 0 { // else: a payload the parser could not lift
					a.Park = make([]byte, len(tc.layout)*moveW)
					r.Read(a.Park)
					b.Park = bytes.Clone(a.Park)
				}
				fused.Process(&a)
				stepwise.Process(&b)
				if !bytes.Equal(a.Park, b.Park) || a.Meta != b.Meta || a.Drop != b.Drop || a.DropWhy != b.DropWhy {
					t.Fatalf("PHV %d (port %d, guard %d): fused left park %x meta %v drop %q,\nstep by step park %x meta %v drop %q",
						i, a.InPort, b.Meta[moveGuardWord], a.Park, a.Meta, a.DropWhy, b.Park, b.Meta, b.DropWhy)
				}
				if x, y := hitVector(fused), hitVector(stepwise); !slices.Equal(x, y) {
					t.Fatalf("PHV %d (port %d, guard %d, park %d B): fused hits %v, step by step %v",
						i, a.InPort, a.Meta[moveGuardWord], len(a.Park), x, y)
				}
				for k := range fusedRegs {
					for c := 0; c < fusedRegs[k].cells; c++ {
						if x, y := fusedRegs[k].cell(c), stepRegs[k].cell(c); !bytes.Equal(x, y) {
							t.Fatalf("PHV %d (port %d, guard %d, index %d): register %d cell %d: fused %x, step by step %x",
								i, a.InPort, a.Meta[moveGuardWord], a.Meta[MetaTableIndex], k, c, x, y)
						}
					}
				}
			}
		})
	}
}

// TestFusedRunCredits pins what a fused run credits: every rule on a hit; on
// a park region too short for the run, every rule of a store run, whose
// guard does not read drop, and only the first of a load run, whose guard
// requires drop == 0 — the rules step-by-step execution fires.
func TestFusedRunCredits(t *testing.T) {
	layout := make([]moveMAT, 6)
	for k := range layout {
		layout[k] = payloadMAT(k)
		layout[k].rules[1].noDrop = true
	}
	p, _ := buildMovePipe(t, layout, true)
	var stores, loads []uint64
	credited := func() {
		stores, loads = stores[:0], loads[:0]
		for _, m := range p.mats {
			stores, loads = append(stores, m.Rules[0].Hits()), append(loads, m.Rules[1].Hits())
		}
	}
	for _, tc := range []struct {
		name         string
		port         PortID
		guard        uint32
		park         int
		stores, load []uint64
	}{
		{"store run, no park region", movePortStore, 1, 0, []uint64{1, 1, 1, 1, 1, 1}, []uint64{0, 0, 0, 0, 0, 0}},
		{"store run, park region", movePortStore, 1, 6 * moveW, []uint64{2, 2, 2, 2, 2, 2}, []uint64{0, 0, 0, 0, 0, 0}},
		{"load run, no park region", movePortLoad, 2, 0, []uint64{2, 2, 2, 2, 2, 2}, []uint64{1, 0, 0, 0, 0, 0}},
		{"load run, park region", movePortLoad, 2, 6 * moveW, []uint64{2, 2, 2, 2, 2, 2}, []uint64{2, 1, 1, 1, 1, 1}},
	} {
		phv := &PHV{Pkt: &packet.Packet{}, InPort: tc.port, Park: make([]byte, tc.park)}
		phv.Meta[moveGuardWord] = tc.guard
		p.Process(phv)
		if credited(); !slices.Equal(stores, tc.stores) || !slices.Equal(loads, tc.load) {
			t.Errorf("%s: store hits %v, load hits %v; want %v, %v", tc.name, stores, loads, tc.stores, tc.load)
		}
	}
}

// TestMoveIndexOutOfRangePanics: a move past its register's cells panics at
// packet time, as Ctx.RMW does. (What a move needs of its register is
// checked once, by Binding.CheckRegister, before a spec's move is built.)
func TestMoveIndexOutOfRangePanics(t *testing.T) {
	p := NewPipeline("misfit")
	reg := p.NewRegister(0, "r", 4, 2)
	p.AddMAT(0, &MAT{Name: "ok", Reg: reg, Rules: []Rule{{Move: Move{Dir: MoveStore, Bytes: 4}}}})
	phv := &PHV{Pkt: &packet.Packet{}, Park: make([]byte, 4)}
	phv.Meta[MetaTableIndex] = 2
	mustPanic(t, `register "r" index 2 out of range [0,2)`, func() { p.Process(phv) })
}

// TestBankedRegisterMatchesStandAlone: a register carved from a bank and one
// placed alone answer Snapshot, Occupied, Cells, Width and SRAMBytes alike, for
// every cell on both sides of a chunk boundary, and banked neighbours do not
// overlap.
func TestBankedRegisterMatchesStandAlone(t *testing.T) {
	const cells, stride = 20_000, 28
	widths := []int{8, 4, 16}
	banked, alone := NewPipeline("banked"), NewPipeline("alone")
	group := make([]BankRegister, len(widths))
	for j, w := range widths {
		group[j] = BankRegister{Stage: j, Name: fmt.Sprintf("r%d", j), Width: w}
	}
	regs := banked.NewRegisterBank(cells, group)
	// A chunk holds the largest power of two of rows that fits bankChunkBytes.
	rows := 1
	for 2*rows*stride <= bankChunkBytes {
		rows *= 2
	}
	if want := (cells + rows - 1) / rows; want < 2 || len(regs[0].bank.chunks) != want {
		t.Fatalf("bank of %d rows x %d B in %d chunks, want %d (%d rows a chunk), at least 2", cells, stride, len(regs[0].bank.chunks), want, rows)
	}
	fill := func(j, c int, cell []byte) {
		for k := range cell {
			cell[k] = byte(j*131 + c*7 + k)
		}
	}
	var solo []*Register
	for j, w := range widths {
		solo = append(solo, alone.NewRegister(j, group[j].Name, w, cells))
		for c := 0; c < cells; c++ {
			fill(j, c, regs[j].cell(c))
			fill(j, c, solo[j].cell(c))
		}
	}
	for j := range widths {
		b, s := regs[j], solo[j]
		if b.Cells() != s.Cells() || b.Width() != s.Width() || b.SRAMBytes() != s.SRAMBytes() || b.Name() != s.Name() {
			t.Errorf("register %d: banked %d x %d B = %d B, stand-alone %d x %d B = %d B",
				j, b.Cells(), b.Width(), b.SRAMBytes(), s.Cells(), s.Width(), s.SRAMBytes())
		}
		for c := 0; c < cells; c++ {
			if !bytes.Equal(b.Snapshot(c), s.Snapshot(c)) {
				t.Fatalf("register %d cell %d: banked %x, stand-alone %x", j, c, b.Snapshot(c), s.Snapshot(c))
			}
		}
		if b.Occupied() != s.Occupied() {
			t.Errorf("register %d: banked counts %d occupied cells, stand-alone %d", j, b.Occupied(), s.Occupied())
		}
	}
	if a, b := banked.Resources(), alone.Resources(); a != b {
		t.Errorf("SRAM accounting differs: banked %+v, stand-alone %+v", a, b)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a banked register answered for a cell past its last")
			}
		}()
		regs[0].Snapshot(cells)
	}()
}

// TestBankOverflowAllocatesNothing: a bank whose last register overflows its
// stage is refused before the rows of the first are allocated.
func TestBankOverflowAllocatesNothing(t *testing.T) {
	const cells = StageSRAMBytes / 16 // two 8-byte registers fill a stage
	p := NewPipeline("overflow")
	bank := []*Register{NewRegister(2, "a", 8, cells), NewRegister(2, "b", 8, cells), NewRegister(2, "c", 8, cells)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := Place(Layout{Pipe: p, Banks: [][]*Register{bank}})
	runtime.ReadMemStats(&after)
	if want := `stage 2 SRAM overflow placing register "c"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want substring %q", err, want)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
		t.Errorf("a refused %d KB bank allocated %d KB", cells*24>>10, grown>>10)
	}
	if p.Resources().SRAMPeakPct != 0 {
		t.Error("a refused bank left registers placed")
	}
}

// movePathsPipe is a 20-block payload table with the metadata table's part
// played by one closure per port: splits on port 1, merges on port 2.
func movePathsPipe(t *testing.T) *Pipeline {
	t.Helper()
	p := NewPipeline("paths")
	p.Parser().ExtractPayloadBlocks(20, moveW)
	p.AddMAT(0, &MAT{Name: "meta", Rules: []Rule{
		{
			Name:   "claim",
			Conds:  conds(t, Cond{Field: fld("in_port"), Value: 1}, Cond{Field: fld("meta.payload_ok"), Value: 1}),
			Action: func(c *Ctx) { c.PHV.SetMeta(MetaSplitClaimed, 1) },
		},
		{
			Name:  "release",
			Conds: conds(t, Cond{Field: fld("in_port"), Value: 2}),
			Action: func(c *Ctx) {
				c.PHV.SetMeta(MetaPPEnabled, 1)
				c.PHV.PrepareMergeBlocks(20, moveW, 0)
			},
		},
	}})
	group := make([]BankRegister, 20)
	for k := range group {
		group[k] = BankRegister{Stage: 1 + k/2, Name: fmt.Sprintf("pload_%d", k), Width: moveW}
	}
	for k, reg := range p.NewRegisterBank(64, group) {
		p.AddMAT(1+k/2, &MAT{Name: reg.Name(), Reg: reg, Rules: []Rule{
			{
				Name:  "store",
				Conds: conds(t, Cond{Field: fld("in_port"), Value: 1}, Cond{Field: fld("meta.split_claimed"), Value: 1}),
				Move:  Move{Dir: MoveStore, Block: k, Bytes: moveW},
			},
			{
				Name:  "load",
				Conds: conds(t, Cond{Field: fld("in_port"), Value: 2}, Cond{Field: fld("meta.pp_enabled"), Value: 1}),
				Move:  Move{Dir: MoveLoad, Block: k, Bytes: moveW},
			},
		}})
	}
	return p
}

// TestPooledProcessZeroAlloc: with pooled PHVs and frame headroom, the
// split, merge and miss paths — FillPHV, Process with its fused move step,
// FinishMerge, ReleasePHV — run without allocating.
func TestPooledProcessZeroAlloc(t *testing.T) {
	p := movePathsPipe(t)
	pkt := testPkt(t, 300)
	want := bytes.Clone(pkt.Payload)
	scratch := make([]byte, 160, 160+len(pkt.Payload))
	tail := scratch[160 : 160+len(pkt.Payload)-160]
	pass := func(port PortID) *PHV {
		phv := p.AcquirePHV()
		p.Parser().FillPHV(phv, pkt, port)
		phv.Headroom = scratch[:160]
		p.Process(phv)
		return phv
	}
	for name, run := range map[string]func(){
		"split+merge": func() {
			pkt.Payload = want
			phv := pass(1)
			if phv.GetMeta(MetaSplitClaimed) != 1 || phv.Drop {
				t.Fatalf("split: claimed=%d drop=%q", phv.GetMeta(MetaSplitClaimed), phv.DropWhy)
			}
			p.ReleasePHV(phv)
			// The deparser cuts the parked prefix; the NF returns the rest.
			pkt.Payload = tail[:copy(tail, want[160:])]
			phv = pass(2)
			if got := phv.FinishMerge(); !bytes.Equal(got, want) {
				t.Fatalf("merge did not restore the payload")
			}
			p.ReleasePHV(phv)
		},
		"miss": func() {
			pkt.Payload = want
			phv := pass(3)
			if phv.GetMeta(MetaSplitClaimed) != 0 {
				t.Fatal("port 3 matched a rule")
			}
			p.ReleasePHV(phv)
		},
	} {
		run() // warm the PHV pool; the split's first store creates the bank's chunk
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("%s: pooled FillPHV+Process+Release allocates %.1f/op, want 0", name, allocs)
		}
	}
	if got := p.MoveSteps(0, 1); !reflect.DeepEqual(got, []MoveShape{{Bytes: 160, Spans: 1}}) {
		t.Errorf("split path compiled to %+v, want one 160 B copy", got)
	}
}
