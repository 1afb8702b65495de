package nf

import (
	"github.com/payloadpark/payloadpark/internal/packet"
)

// NAT cycle-cost model: a flow-table hit is one hash lookup plus header
// rewrites; a miss additionally allocates a port mapping. Calibrated so
// the FW->NAT chain saturates where the paper's OpenNetVM deployment does
// (see internal/harness/calibration.go).
const (
	natHitCycles  = 180
	natMissCycles = 420
	natFirstPort  = 1024
	natPortSpan   = 64512 // 65536 - 1024
)

// NAT is a source NAT modeled on MazuNAT (§6.1): it rewrites the source
// address of outbound packets to its external IP and a per-flow allocated
// port, maintaining forward and reverse mappings. Header checksums are
// patched incrementally (RFC 1624), never recomputed — this is the
// property that keeps NAT compatible with parked payloads.
type NAT struct {
	external packet.IPv4Addr
	nextPort uint16
	flows    map[packet.FiveTuple]uint16
	reverse  map[uint16]packet.FiveTuple
}

// NewNAT builds a NAT with the given external address.
func NewNAT(external packet.IPv4Addr) *NAT {
	return &NAT{
		external: external,
		nextPort: natFirstPort,
		flows:    make(map[packet.FiveTuple]uint16),
		reverse:  make(map[uint16]packet.FiveTuple),
	}
}

// Name implements NF.
func (n *NAT) Name() string { return "NAT" }

// Flows returns the number of active flow mappings.
func (n *NAT) Flows() int { return len(n.flows) }

// Process implements NF: source-rewrite the packet and report cycles.
func (n *NAT) Process(pkt *packet.Packet) (Verdict, uint64) {
	ft := pkt.FiveTuple()
	extPort, ok := n.flows[ft]
	cycles := uint64(natHitCycles)
	if !ok {
		extPort = n.allocPort()
		n.flows[ft] = extPort
		n.reverse[extPort] = ft
		cycles = natMissCycles
	}
	pkt.SetSrcIP(n.external)
	pkt.SetPorts(extPort, pkt.DstPort())
	return Forward, cycles
}

func (n *NAT) allocPort() uint16 {
	p := n.nextPort
	n.nextPort++
	if n.nextPort == 0 { // wrapped past 65535
		n.nextPort = natFirstPort
	}
	// Skip ports still in use (port exhaustion wraps around; real MazuNAT
	// would time mappings out, which our one-directional workloads never
	// need).
	for i := 0; i < natPortSpan; i++ {
		if _, used := n.reverse[p]; !used {
			return p
		}
		p++
		if p < natFirstPort {
			p = natFirstPort
		}
	}
	return p
}
