package rmt

import (
	"fmt"
	"slices"
)

// Tofino-like per-pipe hardware budgets. The paper withholds exact figures
// for confidentiality (§5 footnote 2); these are the publicly circulated
// Tofino-1 approximations. All Table 1 numbers (`ppbench -exp table1`) are
// computed against these budgets.
const (
	// StageCount is the number of match-action stages per pipe.
	StageCount = 12
	// StageSRAMBytes is the stateful+match SRAM budget per stage
	// (80 blocks x 16 KB).
	StageSRAMBytes = 80 * 16 * 1024
	// StageTCAMBytes is the ternary match budget per stage (24 blocks x 1.28 KB).
	StageTCAMBytes = 24 * 1280
	// StageVLIWSlots is the number of VLIW action slots per stage.
	StageVLIWSlots = 32
	// StageExactXbarBits is the exact-match crossbar width per stage.
	StageExactXbarBits = 1024
	// StageTernXbarBits is the ternary-match crossbar width per stage.
	StageTernXbarBits = 544
	// PHVBits is the packet header vector capacity per packet, including
	// tagalong containers.
	PHVBits = 4800
	// MaxRegisterMATsPerStage bounds how many register-backed MATs can
	// share one stage (stateful ALU ports).
	MaxRegisterMATsPerStage = 4

	// PipeLatencyNs is the fixed ingress-to-egress traversal latency of one
	// pass through the pipe.
	PipeLatencyNs = 400
	// RecircLatencyNs is the added latency of one recirculation ("on the
	// order of 10s of ns", §6.2.5).
	RecircLatencyNs = 50
	// maxPasses is how many passes a packet can make: core.Switch
	// recirculates at most once, so a pipe sees pass 0 on its own ports and
	// pass 1 as another pipe's recirculation target. Match programs are
	// compiled for exactly these passes; Process rejects any other.
	maxPasses = 2
)

// Pipeline is one switch pipe: a parser feeding StageCount match-action
// stages. Ports are attached to pipes; ports on different pipes share no
// stateful memory (paper §5).
//
// A Pipeline is not safe for concurrent use: like the hardware pipe it
// models, exactly one driver (worker) may push packets through it at a
// time. Drivers that parallelize across pipes get this for free because
// pipes share no state.
type Pipeline struct {
	name    string
	parser  *Parser
	phvBits int
	// mats are the placed MATs in stage order, each stage's in placement
	// order; regs the placed registers, each in its own stage.
	mats []*MAT
	regs []*Register

	// progs are the compiled match programs (match.go), indexed by
	// pass*(len(ports)+1)+class: class i+1 serves ports[i], the sorted ports
	// that in_port conditions name, and class 0 every other port; classOf
	// maps a port up to the highest named one to its class. Placing a MAT
	// marks them dirty; Compile rebuilds them.
	progs   [][]step
	ports   []PortID
	classOf []int32
	rules   int // rules placed, to size a program
	dirty   bool

	stepsEvaluated, residualLoads uint64 // Process's match work (MatchCounts)

	// phvFree is the pipe-local PHV free-list backing AcquirePHV.
	phvFree []*PHV
}

// NewPipeline returns an empty pipe with the given diagnostic name.
func NewPipeline(name string) *Pipeline {
	return &Pipeline{name: name, parser: &Parser{}, dirty: true}
}

// Name returns the pipe's diagnostic name.
func (p *Pipeline) Name() string { return p.name }

// Parser returns the pipe's parser; a Layout configures it.
func (p *Pipeline) Parser() *Parser { return p.parser }

// PHVBitsUsed returns total PHV bits consumed by declarations and the
// parser's payload blocks.
func (p *Pipeline) PHVBitsUsed() int {
	return p.phvBits + p.parser.phvBits()
}

// Placement.
//
// A table program reaches a pipe through one gate, Place: Fit holds it to
// every placement rule against what the pipes hold, changing nothing, and
// only a program that passes them all is installed. It fits completely or
// touches nothing, as a P4 compiler maps every table to stages before the
// target is touched. (What a block move needs of its register is checked
// where the move is built, by Binding.CheckRegister.)

// Layout is what one table program adds to one pipe.
type Layout struct {
	Pipe    *Pipeline
	PHVBits int
	// Blocks of BlockBytes each, after ParkOffset payload bytes, are lifted
	// into the PHV. The first layout that parks (Blocks > 0) on a pipe sets
	// its parser; a later one must agree, and shares that one's PHV bits.
	Blocks, BlockBytes, ParkOffset int
	// Banks holds the registers, each bank row-major: row i is cell i of
	// every register in it, so a run of block moves copies adjacent cells.
	Banks [][]*Register
	// MATs go to their stages in order, each binding no register, a placed
	// one, or one in Banks.
	MATs []*MAT
}

// NewRegister returns a register of cells cells of width bytes, local to
// stage, for a Layout's bank. It has no storage until placed.
func NewRegister(stage int, name string, width, cells int) *Register {
	return &Register{name: name, stage: stage, width: width, cells: cells}
}

// Fit returns the first placement rule the layouts break, one layout per
// pipe, each against what its pipe holds; nil when they all fit.
func Fit(ls ...Layout) error {
	for i := range ls {
		if err := ls[i].fit(ls[:i]); err != nil {
			return err
		}
	}
	return nil
}

// Place installs the layouts when Fit accepts them all, and otherwise
// returns Fit's error with every pipe unchanged.
func Place(ls ...Layout) error {
	err := Fit(ls...)
	for i := 0; err == nil && i < len(ls); i++ {
		ls[i].install()
	}
	return err
}

// parser returns the PHV bits the layout declares and the parser it sets
// (nil: the pipe's stays).
func (l *Layout) parser() (bits int, set *Parser, err error) {
	have, want := l.Pipe.parser, &Parser{blocks: l.Blocks, blockBytes: l.BlockBytes, parkOffset: l.ParkOffset}
	switch {
	case l.Blocks == 0:
		return l.PHVBits, nil, nil
	case have.blocks == 0:
		return l.PHVBits, want, nil
	case *have != *want:
		return 0, nil, fmt.Errorf("rmt: pipe parser already extracts %dx%dB blocks at offset %d, the program needs %dx%dB at offset %d",
			have.blocks, have.blockBytes, have.parkOffset, want.blocks, want.blockBytes, want.parkOffset)
	}
	return 0, nil, nil
}

func (l *Layout) fit(earlier []Layout) error {
	p := l.Pipe
	if slices.ContainsFunc(earlier, func(o Layout) bool { return o.Pipe == p }) {
		return fmt.Errorf("rmt: pipe %q has two layouts", p.name)
	}
	bits, set, err := l.parser()
	if err != nil {
		return err
	}
	if set == nil {
		set = p.parser
	}
	if used := p.phvBits + bits + set.phvBits(); used > PHVBits {
		return fmt.Errorf("rmt: PHV overflow: %d bits used, %d available", used, PHVBits)
	}
	// What each stage holds, then with what the layout adds.
	used, ports := p.used()
	for _, bank := range l.Banks {
		for _, r := range bank {
			switch {
			case uint(r.stage) >= StageCount:
				return badStage(r.stage)
			case r.width <= 0 || r.width > 16:
				return fmt.Errorf("rmt: register %q width %dB outside (0,16]", r.name, r.width)
			case r.cells <= 0:
				return fmt.Errorf("rmt: register %q needs at least one cell", r.name)
			}
			// By division: a hostile cell count must neither overflow the
			// product nor be allocated before it is refused.
			sram := &used[r.stage].SRAMMatchBytes
			if free := StageSRAMBytes - *sram; r.cells > free/r.width {
				return fmt.Errorf("rmt: stage %d SRAM overflow placing register %q (%d cells x %d B, %d B of the %d B budget free)",
					r.stage, r.name, r.cells, r.width, free, StageSRAMBytes)
			}
			*sram += r.cells * r.width
		}
	}
	for _, m := range l.MATs {
		i, res, r := m.Stage, m.Res, m.Reg
		if uint(i) >= StageCount {
			return badStage(i)
		}
		u := &used[i]
		if r != nil {
			ports[i]++
		}
		// VLIW and TCAM by subtraction: a stage holds no more than its
		// budget, so a hostile declaration cannot wrap the sum below it.
		switch {
		case min(res.TCAMBytes, res.SRAMMatchBytes, res.VLIWSlots, res.ExactXbarBits, res.TernXbarBits) < 0:
			return fmt.Errorf("rmt: MAT %q declares a negative resource: %+v (a table cannot refund a stage's budget)", m.Name, res)
		case r != nil && r.stage != i:
			return fmt.Errorf("rmt: MAT %q in stage %d binds register %q from stage %d (registers are stage-local)", m.Name, i, r.name, r.stage)
		case r != nil && r.bank == nil && !slices.ContainsFunc(l.Banks, func(b []*Register) bool { return slices.Contains(b, r) }):
			return fmt.Errorf("rmt: MAT %q binds register %q, which is neither placed nor in the layout", m.Name, r.name)
		case ports[i] > MaxRegisterMATsPerStage:
			return fmt.Errorf("rmt: stage %d exceeds %d register MATs", i, MaxRegisterMATsPerStage)
		case res.VLIWSlots > StageVLIWSlots-u.VLIWSlots:
			return fmt.Errorf("rmt: stage %d VLIW overflow: %d slots, %d budget", i, u.VLIWSlots+res.VLIWSlots, StageVLIWSlots)
		case res.TCAMBytes > StageTCAMBytes-u.TCAMBytes:
			return fmt.Errorf("rmt: stage %d TCAM overflow: %d B, %d budget", i, u.TCAMBytes+res.TCAMBytes, StageTCAMBytes)
		}
		u.add(res)
	}
	return nil
}

func badStage(i int) error { return fmt.Errorf("rmt: stage %d outside [0,%d)", i, StageCount) }

// install places a layout Fit accepted.
func (l *Layout) install() {
	p := l.Pipe
	bits, set, _ := l.parser()
	if p.phvBits += bits; set != nil {
		*p.parser = *set
	}
	for _, regs := range l.Banks {
		if len(regs) == 0 {
			continue
		}
		cells, stride := 0, 0
		for _, r := range regs {
			cells, stride = max(cells, r.cells), stride+r.width
		}
		b, off := newBank(cells, stride), 0
		for _, r := range regs {
			r.bank, r.off = b, off
			off += r.width
		}
		p.regs = append(p.regs, regs...)
	}
	for _, m := range l.MATs {
		p.rules += len(m.Rules)
		p.dirty = true
	}
	p.mats = append(p.mats, l.MATs...)
	slices.SortStableFunc(p.mats, func(a, b *MAT) int { return a.Stage - b.Stage })
}

// Process runs one pass of the PHV through all stages: the match program
// compiled for the PHV's pass and ingress port, each step testing its
// packed key (match.go) on a flags word. The word is derived when a step
// first tests it and again only when a later step tests it after an action
// fired, as only an action can change it; a block move changes no field of
// it but drop. The caller (switch wrapper) handles parsing, recirculation,
// and deparsing. A pass the hardware cannot produce panics, like every
// other violation of the hardware model.
//
//pp:zeroalloc
func (p *Pipeline) Process(phv *PHV) {
	if p.dirty {
		p.Compile()
	}
	if uint(phv.Pass) >= maxPasses {
		p.badPass(phv.Pass)
	}
	steps := p.program(phv.Pass, phv.InPort)
	// The PHV's context scratch is reused for every hit: a stack Ctx would
	// escape through the indirect Action call and allocate per MAT hit.
	ctx := &phv.ctx
	ctx.PHV = phv
	var flags uint32
	stale, evaluated, loads := true, 0, 0
	for i := 0; i < len(steps); {
		s := &steps[i]
		evaluated++
		if stale && s.mask != 0 {
			flags, stale = flagsOf(phv), false
		}
		hit := flags&s.mask == s.val && phv.Meta[s.meta[0].word]&s.meta[0].mask == s.meta[0].val &&
			phv.Meta[s.meta[1].word]&s.meta[1].mask == s.meta[1].val
		for j := 0; hit && j < len(s.resid); j++ {
			loads++
			hit = (s.resid[j].load(phv) == s.resid[j].val) != s.resid[j].ne
		}
		if !hit {
			i = int(s.onMiss)
			continue
		}
		if s.move != nil {
			s.move.run(phv)
			flags |= uint32(b2i(phv.Drop)) * flagDrop // the one field of the word a move can change
		} else {
			s.rule.hits++
			ctx.reg, ctx.accessed = s.mat.Reg, false
			s.rule.Action(ctx)
			stale = true
		}
		i = int(s.onHit)
	}
	p.stepsEvaluated, p.residualLoads = p.stepsEvaluated+uint64(evaluated), p.residualLoads+uint64(loads)
}

// MatchCounts returns the match steps Process evaluated and the residual
// conditions it loaded, over every packet so far. Not meaningful while a
// worker is processing.
func (p *Pipeline) MatchCounts() (steps, residual uint64) {
	return p.stepsEvaluated, p.residualLoads
}

// program returns the match program compiled for pass and ingress port.
func (p *Pipeline) program(pass int, port PortID) []step {
	class := int32(0)
	if int(port) < len(p.classOf) {
		class = p.classOf[port]
	}
	return p.progs[pass*(len(p.ports)+1)+int(class)]
}

// badPass stays out of line so Process carries none of the message's
// formatting.
//
//go:noinline
func (p *Pipeline) badPass(pass int) {
	panic(fmt.Sprintf("rmt: pipe %q asked to run pass %d; match programs exist for passes [0,%d)", p.name, pass, maxPasses))
}

// AcquirePHV returns a PHV from the pipe-local free-list, or a new one when
// the list is empty, for FillPHV to clear and fill. Pair with ReleasePHV
// once the packet has been deparsed; a recycled PHV runs the
// parse→process→deparse path without allocating.
func (p *Pipeline) AcquirePHV() *PHV {
	if n := len(p.phvFree); n > 0 {
		phv := p.phvFree[n-1]
		p.phvFree = p.phvFree[:n-1]
		return phv
	}
	return &PHV{}
}

// ReleasePHV returns phv to the pipe's free-list as it is; the next
// FillPHV clears it. The caller must not retain references into the PHV;
// the merged payload FinishMerge returns lies in the packet's buffer, not
// the PHV, and stays valid.
func (p *Pipeline) ReleasePHV(phv *PHV) {
	p.phvFree = append(p.phvFree, phv)
}

// used sums what each stage holds — its MATs' resources, with its
// registers' SRAM in SRAMMatchBytes — and counts its MATs that bind a
// register.
func (p *Pipeline) used() (r [StageCount]Resources, regMATs [StageCount]int) {
	for _, m := range p.mats {
		r[m.Stage].add(m.Res)
		if m.Reg != nil {
			regMATs[m.Stage]++
		}
	}
	for _, reg := range p.regs {
		r[reg.stage].SRAMMatchBytes += reg.SRAMBytes()
	}
	return r, regMATs
}

// Usage reports hardware utilization of one pipe against the Tofino-like
// budgets, in the shape of the paper's Table 1.
type Usage struct {
	SRAMBytesPerStage [StageCount]int
	SRAMAvgPct        float64 // average per-stage SRAM utilization
	SRAMPeakPct       float64 // peak per-stage SRAM utilization
	TCAMPct           float64
	VLIWPct           float64
	ExactXbarPct      float64
	TernXbarPct       float64
	PHVPct            float64
}

// Resources computes the pipe's current utilization.
func (p *Pipeline) Resources() Usage {
	var u Usage
	var sum Resources
	used, _ := p.used()
	for i, r := range used {
		sum.add(r)
		u.SRAMBytesPerStage[i] = r.SRAMMatchBytes
		u.SRAMPeakPct = max(u.SRAMPeakPct, 100*float64(r.SRAMMatchBytes)/StageSRAMBytes)
	}
	u.SRAMAvgPct = 100 * float64(sum.SRAMMatchBytes) / (StageCount * StageSRAMBytes)
	u.TCAMPct = 100 * float64(sum.TCAMBytes) / (StageCount * StageTCAMBytes)
	u.VLIWPct = 100 * float64(sum.VLIWSlots) / (StageCount * StageVLIWSlots)
	u.ExactXbarPct = 100 * float64(sum.ExactXbarBits) / (StageCount * StageExactXbarBits)
	u.TernXbarPct = 100 * float64(sum.TernXbarBits) / (StageCount * StageTernXbarBits)
	u.PHVPct = 100 * float64(p.PHVBitsUsed()) / PHVBits
	return u
}
