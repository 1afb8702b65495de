package nf

import (
	"fmt"
	"hash/fnv"

	"github.com/payloadpark/payloadpark/internal/maglev"
	"github.com/payloadpark/payloadpark/internal/packet"
)

// LB cycle-cost model: one flow hash plus one table lookup plus a header
// rewrite.
const lbCycles = 150

// LoadBalancer is the paper's L4 load balancer, "based on the Maglev
// load-balancer" (§6.1): it consistently hashes the 5-tuple and rewrites
// the destination IP to the selected backend.
type LoadBalancer struct {
	table    *maglev.Table
	backends map[string]packet.IPv4Addr
}

// NewLoadBalancer builds an LB over the named backends. The map's keys are
// backend names fed to the Maglev table; values are their virtual IPs.
func NewLoadBalancer(backends map[string]packet.IPv4Addr) (*LoadBalancer, error) {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	tbl, err := maglev.New(names, maglev.DefaultTableSize)
	if err != nil {
		return nil, fmt.Errorf("nf: load balancer: %w", err)
	}
	cp := make(map[string]packet.IPv4Addr, len(backends))
	for k, v := range backends {
		cp[k] = v
	}
	return &LoadBalancer{table: tbl, backends: cp}, nil
}

// Name implements NF.
func (l *LoadBalancer) Name() string { return "LB" }

// Process implements NF.
func (l *LoadBalancer) Process(pkt *packet.Packet) (Verdict, uint64) {
	h := flowHash(pkt.FiveTuple())
	backend := l.table.Lookup(h)
	pkt.SetDstIP(l.backends[backend])
	return Forward, lbCycles
}

// flowHash hashes a 5-tuple for consistent backend selection.
func flowHash(ft packet.FiveTuple) uint64 {
	h := fnv.New64a()
	var b [13]byte
	copy(b[0:4], ft.SrcIP[:])
	copy(b[4:8], ft.DstIP[:])
	b[8] = byte(ft.SrcPort >> 8)
	b[9] = byte(ft.SrcPort)
	b[10] = byte(ft.DstPort >> 8)
	b[11] = byte(ft.DstPort)
	b[12] = byte(ft.Protocol)
	h.Write(b[:])
	return h.Sum64()
}
