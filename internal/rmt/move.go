// Block moves.
//
// The payload table is one MAT and one register per 8-byte block because a
// Tofino stage affords only a few narrow stateful accesses — a constraint of
// the target, not of the program. So a block move is declared as data (Move,
// on the rule), and the pipe decides how to execute it: Compile folds a run
// of moves under one guard into one step (fuseMoves), and run executes a
// step of n >= 1 blocks — over adjacent registers of one bank, one copy.
package rmt

import "fmt"

// MoveDir is the direction of a block move.
type MoveDir uint8

const (
	NoMove    MoveDir = iota
	MoveStore         // park region -> register cell (the split-side park)
	MoveLoad          // register cell -> park region, then zero the cell (the merge-side restore)
)

// Move declares a rule whose whole effect is one stateful access moving
// payload block Block — bytes [Block*Bytes, (Block+1)*Bytes) of the PHV's
// park region — to or from the leading Bytes of the cell of the MAT's
// register that meta.tbl_idx picks. A park region that does not reach the
// block drops the packet as DropNoParkRegion; an index outside the register
// panics, as in Ctx.RMW.
type Move struct {
	Dir   MoveDir
	Block int
	Bytes int
}

// moveRun is one compiled move step: the moves of a run, coalesced into
// spans, and the run's rules, which it credits when it fires.
type moveRun struct {
	load  bool
	need  int // park-region bytes the run reaches
	spans []span
	rules []*Rule
	short int // rules credited when the park region falls short of need
}

// span is a piece of a run contiguous on both sides: n bytes at park-region
// offset at, and n bytes of the bank row from reg's cell on — reg's cell,
// then those of the registers placed directly behind it, which have reg's
// cell count, so its range check covers them. clr is what a load zeroes: n,
// or the whole cell of a lone register wider than the block.
type span struct {
	reg        *Register
	at, n, clr int
}

// newMoveRun coalesces the moves of steps, which Compile found fusable.
func newMoveRun(steps []step) *moveRun {
	m := &moveRun{load: steps[0].rule.Move.Dir == MoveLoad, short: len(steps)}
	if g := &steps[0].guard; g.mask&flagDrop != 0 && g.val&flagDrop == 0 {
		m.short = 1
	}
	for i := range steps {
		mv, reg := steps[i].rule.Move, steps[i].mat.Reg
		m.rules = append(m.rules, steps[i].rule)
		at := mv.Block * mv.Bytes
		m.need = max(m.need, at+mv.Bytes)
		if k := len(m.spans) - 1; k >= 0 {
			// Extend the open span when this block and this cell directly
			// follow what it already covers, with no slack in either cell.
			sp := &m.spans[k]
			if reg.bank == sp.reg.bank && reg.cells == sp.reg.cells && reg.off == sp.reg.off+sp.n &&
				at == sp.at+sp.n && sp.clr == sp.n && mv.Bytes == reg.width {
				sp.n += mv.Bytes
				sp.clr = sp.n
				continue
			}
		}
		m.spans = append(m.spans, span{reg: reg, at: at, n: mv.Bytes, clr: reg.width})
	}
	return m
}

// run executes the step: the one routine that moves payload blocks, for a
// lone block as for a fused run. It credits the rules that would have fired
// step by step.
//
//pp:zeroalloc
func (m *moveRun) run(phv *PHV) {
	park := phv.Park
	if len(park) < m.need {
		phv.MarkDrop(DropNoParkRegion)
		for _, r := range m.rules[:m.short] {
			r.hits++
		}
		return
	}
	for _, r := range m.rules {
		r.hits++
	}
	idx := int(phv.Meta[MetaTableIndex])
	for i := range m.spans {
		sp := &m.spans[i]
		if uint(idx) >= uint(sp.reg.cells) {
			sp.reg.badIndex(idx)
		}
		row := sp.reg.bank.row(idx, sp.reg.off)[:sp.clr]
		if m.load {
			copy(park[sp.at:], row[:sp.n])
			clear(row)
		} else {
			copy(row, park[sp.at:sp.at+sp.n])
		}
	}
}

// badIndex stays out of line so run carries none of the message's
// formatting.
//
//go:noinline
func (r *Register) badIndex(idx int) {
	panic(fmt.Sprintf("rmt: register %q index %d out of range [0,%d)", r.name, idx, r.cells))
}
