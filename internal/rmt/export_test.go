package rmt

// MoveShape describes one compiled move step to tests outside the package:
// its direction, the bytes it moves and the copies it takes.
type MoveShape struct {
	Load         bool
	Bytes, Spans int
}

// MoveSteps lists the move steps of the program compiled for pass and
// ingress port, in program order.
func (p *Pipeline) MoveSteps(pass int, port PortID) []MoveShape {
	p.Compile()
	var out []MoveShape
	for _, s := range p.program(pass, port) {
		if s.move == nil {
			continue
		}
		shape := MoveShape{Load: s.move.load, Spans: len(s.move.spans)}
		for _, sp := range s.move.spans {
			shape.Bytes += sp.n
		}
		out = append(out, shape)
	}
	return out
}

// BankRegister is one register of a hand-built test bank.
type BankRegister struct {
	Stage int
	Name  string
	Width int // bytes per cell
}

// NewRegister, NewRegisterBank and AddMAT build test pipes by hand, one
// piece at a time through Place, and panic with Fit's error when it refuses
// the piece.
func (p *Pipeline) NewRegister(stage int, name string, width, cells int) *Register {
	return p.NewRegisterBank(cells, []BankRegister{{Stage: stage, Name: name, Width: width}})[0]
}

func (p *Pipeline) NewRegisterBank(cells int, regs []BankRegister) []*Register {
	bank := make([]*Register, len(regs))
	for i, r := range regs {
		bank[i] = NewRegister(r.Stage, r.Name, r.Width, cells)
	}
	mustPlace(Layout{Pipe: p, Banks: [][]*Register{bank}})
	return bank
}

func (p *Pipeline) AddMAT(stage int, m *MAT) {
	m.Stage = stage
	mustPlace(Layout{Pipe: p, MATs: []*MAT{m}})
}

func mustPlace(l Layout) {
	if err := Place(l); err != nil {
		panic(err.Error())
	}
}

// ExtractPayloadBlocks configures a hand-built test pipe's parser.
func (p *Parser) ExtractPayloadBlocks(blocks, blockBytes int) {
	p.blocks, p.blockBytes = blocks, blockBytes
}
