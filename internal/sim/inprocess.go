package sim

import (
	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// InProcess is the engine-less backend: the Fig. 5 testbed — one switch,
// one NF server — with no clock and no sockets. Each call carries one
// packet (or frame) through generator → switch → NF → switch → sink, the
// operation order the engine and the socket daemons produce with a single
// packet in flight.
type InProcess struct {
	SW *core.Switch
	// Prog is the installed PayloadPark program (nil for the baseline).
	Prog   *core.Program
	Server *nf.Server

	one   batchOfOne
	fb    *core.FrameBurst
	nfPkt packet.Packet
	wire  []byte
}

// NewInProcess builds the testbed switch around srv; pp parameterizes the
// PayloadPark program (ports are pinned by the wiring), nil runs the
// baseline.
func NewInProcess(pp *core.Config, srv *nf.Server) (*InProcess, error) {
	sw := core.NewSwitch("inprocess")
	prog, err := wireTestbed(sw, pp)
	if err != nil {
		return nil, err
	}
	return &InProcess{SW: sw, Prog: prog, Server: srv, fb: sw.NewFrameBurst(1)}, nil
}

// Process pushes one generator packet through the round trip and returns
// what the sink receives (nil if dropped anywhere). pkt is mutated in
// place.
func (r *InProcess) Process(pkt *packet.Packet) *packet.Packet {
	// A dropped packet's emission is zeroed, so Em.Pkt is nil.
	toNF := r.one.inject(r.SW, pkt, portSplit).Em.Pkt
	if toNF == nil {
		return nil
	}
	res := r.Server.Handle(toNF)
	if res.Out == nil {
		return nil
	}
	return r.one.inject(r.SW, res.Out, portNF).Em.Pkt
}

// ProcessFrame is Process at the byte level: frame in, the sink's frame
// out (nil, nil when dropped). The NF side parses the switch's bytes as a
// PayloadPark-unaware framework would: any PayloadPark header rides inside
// the payload untouched.
func (r *InProcess) ProcessFrame(frame []byte) ([]byte, error) {
	toNF, err := r.frameHop(frame, portSplit)
	if toNF == nil {
		return nil, err
	}
	r.wire = toNF.AppendSerialize(r.wire[:0])
	if err := packet.ParseAtInto(&r.nfPkt, r.wire, -1); err != nil {
		return nil, err
	}
	res := r.Server.Handle(&r.nfPkt)
	if res.Out == nil {
		return nil, nil
	}
	r.wire = res.Out.AppendSerialize(r.wire[:0])
	toSink, err := r.frameHop(r.wire, portNF)
	if toSink == nil {
		return nil, err
	}
	return toSink.Serialize(), nil
}

// frameHop runs frame through a one-slot FrameBurst; the packet aliases
// the slot until the next hop.
func (r *InProcess) frameHop(frame []byte, in rmt.PortID) (*packet.Packet, error) {
	r.fb.Reset()
	if err := r.fb.Add(frame, in); err != nil {
		return nil, err
	}
	return r.fb.Run()[0].Em.Pkt, nil
}
