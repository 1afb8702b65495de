package nf

import (
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// ServerConfig describes how the NF framework hosts a chain.
type ServerConfig struct {
	// Chain is the NF chain the server runs.
	Chain *Chain
	// RewriteMACs makes the framework set the L2 addresses of forwarded
	// packets (NFMAC -> NextHopMAC), the static next-hop configuration
	// typical of OpenNetVM deployments. Chains ending in a MAC-swapping NF
	// leave this false.
	RewriteMACs bool
	NFMAC       packet.MAC
	NextHopMAC  packet.MAC
	// ExplicitDrop enables the paper's optional framework modification
	// (§6.2.4, ~50 LoC in OpenNetVM): when an NF drops a packet that
	// carries an enabled PayloadPark header, the framework truncates the
	// payload behind the header, flips the opcode to Explicit Drop, and
	// returns the notification to the switch so the parked payload is
	// reclaimed immediately.
	ExplicitDrop bool
	// Boundary is the §7 decoupling boundary of the parking program in
	// front of the server: a PayloadPark header rides Boundary bytes into
	// the payload, behind the prefix the NFs see. HandleFrame reads the
	// header there, and only to notify an explicit drop.
	Boundary int
}

// Result is the outcome of a server handling one packet.
type Result struct {
	// Out is the packet to transmit back to the switch; nil when the
	// packet was consumed (dropped without notification).
	Out *packet.Packet
	// Costs are the per-stage CPU costs incurred. The slice aliases a
	// buffer the Server owns and is valid only until the next Handle on
	// that server; a caller that keeps costs past then copies them out.
	Costs []StageCost
	// Notification is true when Out is an Explicit Drop notification
	// rather than a forwarded packet.
	Notification bool
}

// Server models the NF framework endpoint: it applies the chain to
// arriving packets and implements the framework-level forwarding and
// explicit-drop behaviour. Timing is modeled by the simulator; Server is
// behaviour only. One goroutine drives a Server: Handle reuses the
// server's cost buffer from call to call, HandleFrame its parse scratch
// too.
type Server struct {
	cfg ServerConfig
	// costs backs Result.Costs (one entry per chain stage), so Handle
	// allocates nothing.
	costs []StageCost
	// frame is the packet HandleFrame parses into, reused frame to frame.
	frame packet.Packet

	// Rx counts packets handled; Tx packets returned; Dropped packets
	// consumed; Notifications explicit-drop notifications sent.
	Rx            stats.Counter
	Tx            stats.Counter
	Dropped       stats.Counter
	Notifications stats.Counter
}

// NewServer builds a server for the given configuration.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg, costs: make([]StageCost, 0, cfg.Chain.Len())}
}

// Chain returns the hosted chain.
func (s *Server) Chain() *Chain { return s.cfg.Chain }

// Handle runs one packet through the framework. The returned Costs stay
// valid until the next Handle (see Result.Costs).
//
//pp:zeroalloc
func (s *Server) Handle(pkt *packet.Packet) Result {
	s.Rx.Inc()
	verdict, costs := s.cfg.Chain.processInto(s.costs[:0], pkt)
	out, notified := s.finish(pkt, verdict)
	return Result{Out: out, Costs: costs, Notification: notified}
}

// HandleFrame is Handle on the wire: it parses frame as a PayloadPark-
// unaware framework does — a PayloadPark header rides inside the payload,
// untouched — runs the chain, and appends the response frame, if any, to
// dst. Only when the chain drops the packet and explicit drops are on does
// the framework read the header, at its wire position behind the
// boundary, so Handle's notification step can flip it. The returned
// Result's Out is the server's scratch packet, valid until the next call;
// a frame the framework cannot parse is the error, with no response.
//
//pp:zeroalloc
func (s *Server) HandleFrame(frame, dst []byte) ([]byte, Result, error) {
	p := &s.frame
	if err := packet.ParseAtInto(p, frame, -1); err != nil {
		return dst, Result{}, err
	}
	s.Rx.Inc()
	verdict, costs := s.cfg.Chain.processInto(s.costs[:0], p)
	if verdict == Drop && s.cfg.ExplicitDrop {
		s.readHeader(p, frame)
	}
	out, notified := s.finish(p, verdict)
	if out != nil {
		dst = p.AppendSerialize(dst)
	}
	return dst, Result{Out: out, Costs: costs, Notification: notified}, nil
}

// readHeader attaches the PayloadPark header frame carries at its wire
// position, the boundary's bytes behind the L4 header, to p, the frame's
// PayloadPark-unaware parse; payload bytes that are no header attach
// nothing.
func (s *Server) readHeader(p *packet.Packet, frame []byte) {
	if at := p.HeaderLen() + s.cfg.Boundary; len(frame) >= at+packet.PPHeaderLen {
		p.SetPP(packet.PPHeader{})
		p.PPOffset = s.cfg.Boundary
		if p.PP.Unmarshal(frame[at:]) != nil {
			p.PP = nil
		}
	}
}

// finish applies the framework's step after the chain: forward (with the
// next-hop rewrite when configured), notify an explicit drop, or consume
// (nil). It returns registers, not a Result: a Result copied through it
// cost HandleFrame a store-to-load forwarding stall on every frame.
func (s *Server) finish(pkt *packet.Packet, verdict Verdict) (out *packet.Packet, notified bool) {
	if verdict == Drop {
		if s.cfg.ExplicitDrop && pkt.PP != nil && pkt.PP.Enabled {
			// §6.2.4: truncate behind the header, so the visible prefix
			// stays where the switch parses it; flip the opcode; send back.
			pkt.Payload = pkt.Payload[:min(pkt.PPOffset, len(pkt.Payload))]
			pkt.PP.Op = packet.PPOpExplicitDrop
			s.rewriteMACs(pkt)
			s.Notifications.Inc()
			return pkt, true
		}
		s.Dropped.Inc()
		return nil, false
	}
	if s.cfg.RewriteMACs {
		s.rewriteMACs(pkt)
	}
	s.Tx.Inc()
	return pkt, false
}

func (s *Server) rewriteMACs(pkt *packet.Packet) {
	pkt.Eth.Src = s.cfg.NFMAC
	pkt.Eth.Dst = s.cfg.NextHopMAC
}
