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
