package sim

import (
	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// InProcess is the Fig. 5 testbed graph — one switch, one NF server —
// realised with no clock and no sockets. Each call carries one packet (or
// frame) through generator → switch → NF → switch → sink, the operation
// order the engine and the socket daemons produce with a single packet in
// flight.
type InProcess struct {
	SW *core.Switch
	// Prog is the installed PayloadPark program (nil for the baseline).
	Prog   *core.Program
	Server *nf.Server

	genPort, nfPort rmt.PortID
	one             batchOfOne
	walk            *Walker
	wire            []byte
}

// NewInProcess builds the testbed graph of the sections: the parking
// program s.Parking describes (the baseline when it parks nothing; ports
// are pinned by the graph) and the NF server s.ServerConfig hosts, the
// event simulator's server.
func NewInProcess(s Sections) (*InProcess, error) {
	g := SingleSwitchGraph("inprocess", s, []rmt.PortID{0}, false)
	sws, err := g.RealiseAll()
	if err != nil {
		return nil, err
	}
	fl := &g.Flows[0]
	r := &InProcess{SW: sws[0], Server: nf.NewServer(s.ServerConfig(fl)), genPort: fl.Gen.At.Port, nfPort: fl.NF.At.Port, walk: NewWalker(g, sws)}
	if progs := sws[0].Programs(); len(progs) > 0 {
		r.Prog = progs[0]
	}
	return r, nil
}

// Process pushes one generator packet through the round trip and returns
// what the sink receives (nil if dropped anywhere). pkt is mutated in
// place.
func (r *InProcess) Process(pkt *packet.Packet) *packet.Packet {
	// A dropped packet's emission is zeroed, so Em.Pkt is nil.
	toNF := r.one.inject(r.SW, pkt, r.genPort).Em.Pkt
	if toNF == nil {
		return nil
	}
	res := r.Server.Handle(toNF)
	if res.Out == nil {
		return nil
	}
	return r.one.inject(r.SW, res.Out, r.nfPort).Em.Pkt
}

// ProcessFrame is Process at the byte level: frame in, the sink's frame
// out (nil, nil when dropped). The NF side is the server's HandleFrame.
func (r *InProcess) ProcessFrame(frame []byte) ([]byte, error) {
	var nfErr error
	out, err := r.walk.Send(0, frame, func(_ *Endpoint, toNF []byte) []byte {
		var res nf.Result
		if r.wire, res, nfErr = r.Server.HandleFrame(toNF, r.wire[:0]); res.Out == nil {
			return nil
		}
		return r.wire
	})
	if err == nil {
		err = nfErr
	}
	if err != nil || out == nil {
		return nil, err
	}
	return append([]byte(nil), out...), nil // out aliases the walker's scratch
}
