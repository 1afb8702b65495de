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

// Stage is one match-action stage of a pipe.
type Stage struct {
	index int
	mats  []*MAT
	regs  []*Register
}

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
	stages  [StageCount]*Stage
	parser  *Parser
	phvBits int

	// progs are the compiled match programs (match.go), indexed by
	// pass*(len(ports)+1)+class: class i+1 serves ports[i], the sorted ports
	// that in_port conditions name, and class 0 every other port. AddMAT
	// marks them dirty; Compile rebuilds them.
	progs [][]step
	ports []PortID
	rules int // rules placed, to size a program
	dirty bool

	stepsEvaluated, residualLoads uint64 // Process's match work (MatchCounts)

	// phvFree is the pipe-local PHV free-list backing AcquirePHV.
	phvFree []*PHV
}

// NewPipeline returns an empty pipe with the given diagnostic name.
func NewPipeline(name string) *Pipeline {
	p := &Pipeline{name: name, parser: NewParser(), dirty: true}
	for i := range p.stages {
		p.stages[i] = &Stage{index: i}
	}
	return p
}

// Name returns the pipe's diagnostic name.
func (p *Pipeline) Name() string { return p.name }

// Parser returns the pipe's parser for configuration.
func (p *Pipeline) Parser() *Parser { return p.parser }

// DeclarePHVBits records the PHV bits the program's headers+metadata use;
// the parser adds its own payload-block usage. Panics if the total exceeds
// the PHV capacity — the compiler would reject such a program.
func (p *Pipeline) DeclarePHVBits(bits int) {
	p.phvBits += bits
	if p.PHVBitsUsed() > PHVBits {
		panic(fmt.Sprintf("rmt: PHV overflow: %d bits used, %d available", p.PHVBitsUsed(), PHVBits))
	}
}

// PHVBitsUsed returns total PHV bits consumed by declarations and the
// parser's payload blocks.
func (p *Pipeline) PHVBitsUsed() int {
	return p.phvBits + p.parser.phvBits()
}

// NewRegister allocates a stand-alone register array local to stage: a
// bank of one. It panics when the stage index is invalid or the stage's
// SRAM budget would overflow, mirroring a compiler placement failure.
func (p *Pipeline) NewRegister(stage int, name string, widthBytes, cells int) *Register {
	return p.NewRegisterBank(cells, []BankRegister{{Stage: stage, Name: name, Width: widthBytes}})[0]
}

// BankRegister places one register of a bank.
type BankRegister struct {
	Stage int
	Name  string
	Width int // bytes per cell
}

// NewRegisterBank allocates registers of cells cells each, every one local
// to its own stage and charged to that stage's SRAM budget as if placed
// alone, over one row-major bank: cell i of regs[j] directly follows cell i
// of regs[j-1], for registers consecutive block moves fill. It panics like
// NewRegister, before any byte is allocated.
func (p *Pipeline) NewRegisterBank(cells int, regs []BankRegister) []*Register {
	var placing [StageCount]int // SRAM this call has claimed, by stage
	stride := 0
	for _, r := range regs {
		s := p.stage(r.Stage)
		if r.Width <= 0 || r.Width > 16 {
			panic(fmt.Sprintf("rmt: register %q width %dB outside (0,16]", r.Name, r.Width))
		}
		if cells <= 0 {
			panic(fmt.Sprintf("rmt: register %q needs at least one cell", r.Name))
		}
		// Budget first, by division: a hostile cell count must neither overflow
		// the product nor be allocated before it is refused.
		if free := StageSRAMBytes - s.sramBytes() - placing[r.Stage]; cells > free/r.Width {
			panic(fmt.Sprintf("rmt: stage %d SRAM overflow placing register %q (%d cells x %d B, %d B of the %d B budget free)",
				r.Stage, r.Name, cells, r.Width, free, StageSRAMBytes))
		}
		placing[r.Stage] += cells * r.Width
		stride += r.Width
	}
	b := newBank(cells, stride)
	placed, out := make([]Register, len(regs)), make([]*Register, len(regs))
	off := 0
	for i, r := range regs {
		placed[i] = Register{name: r.Name, stage: r.Stage, width: r.Width, cells: cells, bank: b, off: off}
		off += r.Width
		out[i] = &placed[i]
		p.stages[r.Stage].regs = append(p.stages[r.Stage].regs, out[i])
	}
	return out
}

// AddMAT places a MAT in a stage. It validates stage locality of the bound
// register, the stateful-ALU port budget, and the stage resource budgets.
func (p *Pipeline) AddMAT(stage int, m *MAT) {
	s := p.stage(stage)
	if m.Reg != nil {
		if m.Reg.stage != stage {
			panic(fmt.Sprintf("rmt: MAT %q in stage %d binds register %q from stage %d (registers are stage-local)",
				m.Name, stage, m.Reg.name, m.Reg.stage))
		}
		n := 0
		for _, other := range s.mats {
			if other.Reg != nil {
				n++
			}
		}
		if n+1 > MaxRegisterMATsPerStage {
			panic(fmt.Sprintf("rmt: stage %d exceeds %d register MATs", stage, MaxRegisterMATsPerStage))
		}
	}
	for i := range m.Rules {
		// What Ctx.RMW refuses per packet, a declared move is refused here.
		if r, mv := &m.Rules[i], m.Rules[i].Move; mv.Dir != NoMove &&
			(r.Action != nil || m.Reg == nil || mv.Block < 0 || mv.Bytes <= 0 || mv.Bytes > m.Reg.width) {
			panic(fmt.Sprintf("rmt: MAT %q rule %q moves %d B of block %d: it needs a bound register with cells that wide, and no action body",
				m.Name, r.Name, mv.Bytes, mv.Block))
		}
	}
	if got, budget := s.vliwSlots()+m.Res.VLIWSlots, StageVLIWSlots; got > budget {
		panic(fmt.Sprintf("rmt: stage %d VLIW overflow: %d slots, %d budget", stage, got, budget))
	}
	if got, budget := s.tcamBytes()+m.Res.TCAMBytes, StageTCAMBytes; got > budget {
		panic(fmt.Sprintf("rmt: stage %d TCAM overflow: %d B, %d budget", stage, got, budget))
	}
	s.mats = append(s.mats, m)
	p.rules += len(m.Rules)
	p.dirty = true
}

func (p *Pipeline) stage(i int) *Stage {
	if i < 0 || i >= StageCount {
		panic(fmt.Sprintf("rmt: stage %d outside [0,%d)", i, StageCount))
	}
	return p.stages[i]
}

// Process runs one pass of the PHV through all stages: the match program
// compiled for the PHV's pass and ingress port, each step testing its
// packed key (match.go) on a flags word derived here and again only after a
// step fires, as only a hit can change it. The caller (switch wrapper)
// handles parsing, recirculation, and deparsing. A pass the hardware cannot
// produce panics, like every other violation of the hardware model.
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
	flags := flagsOf(phv)
	evaluated, loads := 0, 0
	for i := 0; i < len(steps); {
		s := &steps[i]
		evaluated++
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
		} else {
			ctx.reg, ctx.accessed = s.mat.Reg, false
			s.rule.Action(ctx)
		}
		flags = flagsOf(phv)
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
	class := slices.Index(p.ports, port) + 1
	return p.progs[pass*(len(p.ports)+1)+class]
}

// badPass stays out of line so Process carries none of the message's
// formatting.
//
//go:noinline
func (p *Pipeline) badPass(pass int) {
	panic(fmt.Sprintf("rmt: pipe %q asked to run pass %d; match programs exist for passes [0,%d)", p.name, pass, maxPasses))
}

// AcquirePHV returns a reset PHV from the pipe-local free-list, or a new
// one when the list is empty. Pair with ReleasePHV once the packet has
// been deparsed; a recycled PHV runs the parse→process→deparse path
// without allocating.
func (p *Pipeline) AcquirePHV() *PHV {
	if n := len(p.phvFree); n > 0 {
		phv := p.phvFree[n-1]
		p.phvFree = p.phvFree[:n-1]
		return phv
	}
	return &PHV{}
}

// ReleasePHV resets phv and returns it to the pipe's free-list. The caller
// must not retain references into the PHV; buffers handed out by FinishMerge
// on the headroom path belong to the caller's frame scratch, not the PHV,
// and stay valid.
func (p *Pipeline) ReleasePHV(phv *PHV) {
	phv.Reset()
	p.phvFree = append(p.phvFree, phv)
}

func (s *Stage) sramBytes() int {
	n := 0
	for _, r := range s.regs {
		n += r.SRAMBytes()
	}
	for _, m := range s.mats {
		n += m.Res.SRAMMatchBytes
	}
	return n
}

func (s *Stage) tcamBytes() int {
	n := 0
	for _, m := range s.mats {
		n += m.Res.TCAMBytes
	}
	return n
}

func (s *Stage) vliwSlots() int {
	n := 0
	for _, m := range s.mats {
		n += m.Res.VLIWSlots
	}
	return n
}

func (s *Stage) exactXbarBits() int {
	n := 0
	for _, m := range s.mats {
		n += m.Res.ExactXbarBits
	}
	return n
}

func (s *Stage) ternXbarBits() int {
	n := 0
	for _, m := range s.mats {
		n += m.Res.TernXbarBits
	}
	return n
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
	var sramSum, tcam, vliw, exact, tern int
	for i, s := range p.stages {
		b := s.sramBytes()
		u.SRAMBytesPerStage[i] = b
		sramSum += b
		pct := 100 * float64(b) / StageSRAMBytes
		if pct > u.SRAMPeakPct {
			u.SRAMPeakPct = pct
		}
		tcam += s.tcamBytes()
		vliw += s.vliwSlots()
		exact += s.exactXbarBits()
		tern += s.ternXbarBits()
	}
	u.SRAMAvgPct = 100 * float64(sramSum) / (StageCount * StageSRAMBytes)
	u.TCAMPct = 100 * float64(tcam) / (StageCount * StageTCAMBytes)
	u.VLIWPct = 100 * float64(vliw) / (StageCount * StageVLIWSlots)
	u.ExactXbarPct = 100 * float64(exact) / (StageCount * StageExactXbarBits)
	u.TernXbarPct = 100 * float64(tern) / (StageCount * StageTernXbarBits)
	u.PHVPct = 100 * float64(p.PHVBitsUsed()) / PHVBits
	return u
}
