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
	// payload, flips the opcode to Explicit Drop, and returns the
	// notification to the switch so the parked payload is reclaimed
	// immediately.
	ExplicitDrop bool
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
// server's cost buffer from call to call.
type Server struct {
	cfg ServerConfig
	// costs backs Result.Costs (one entry per chain stage), so Handle
	// allocates nothing.
	costs []StageCost

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
	if verdict == Drop {
		if s.cfg.ExplicitDrop && pkt.PP != nil && pkt.PP.Enabled {
			// §6.2.4: truncate, flip opcode, send back.
			pkt.Payload = nil
			pkt.PP.Op = packet.PPOpExplicitDrop
			s.rewriteMACs(pkt)
			s.Notifications.Inc()
			return Result{Out: pkt, Costs: costs, Notification: true}
		}
		s.Dropped.Inc()
		return Result{Costs: costs}
	}
	if s.cfg.RewriteMACs {
		s.rewriteMACs(pkt)
	}
	s.Tx.Inc()
	return Result{Out: pkt, Costs: costs}
}

func (s *Server) rewriteMACs(pkt *packet.Packet) {
	pkt.Eth.Src = s.cfg.NFMAC
	pkt.Eth.Dst = s.cfg.NextHopMAC
}
