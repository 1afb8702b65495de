// Package nf implements the network functions and the NF-framework
// behaviour of the paper's evaluation: a linear-probe firewall, a
// MazuNAT-style NAT, a Maglev-based L4 load balancer, a MAC swapper, and
// synthetic NFs of calibrated CPU cost, composed into chains and hosted by
// a Server that models an OpenNetVM/NetBricks-like framework (including
// the optional Explicit Drop integration of §6.2.4).
//
// Server is the one NF framework: every NF endpoint — the simulator's
// server stations, the in-process Deployment, the socket daemons, the
// live reference replay — hosts one. Handle serves a parsed packet and
// HandleFrame the same packet on the wire, PayloadPark-unaware; both end
// in the one framework step that forwards, notifies an explicit drop, or
// consumes.
//
// NFs here are *behavioural*: they really parse and rewrite headers. The
// cycle counts they report feed the timing model in internal/sim; the
// packet transformations feed the byte-accurate dataplane.
package nf

import (
	"github.com/payloadpark/payloadpark/internal/packet"
)

// Verdict is an NF's decision about a packet.
type Verdict int

// Verdicts.
const (
	Forward Verdict = iota
	Drop
)

// NF is a shallow network function: it examines (and may rewrite) packet
// headers and reports the CPU cycles the operation cost. Shallow NFs never
// read the payload — which is exactly why PayloadPark applies to them.
type NF interface {
	// Name identifies the NF in chain descriptions and stats.
	Name() string
	// Process applies the NF to the packet, returning the verdict and the
	// CPU cycles consumed. The packet may be mutated (headers only).
	Process(pkt *packet.Packet) (Verdict, uint64)
}

// StageCost records the cycles one chain stage spent on a packet.
type StageCost struct {
	Name   string
	Cycles uint64
}

// Chain is an ordered NF chain (e.g. Firewall -> NAT -> LB). A Drop
// verdict short-circuits the remaining NFs.
type Chain struct {
	nfs []NF
}

// NewChain builds a chain in processing order.
func NewChain(nfs ...NF) *Chain {
	return &Chain{nfs: nfs}
}

// Name renders the chain as "FW->NAT->LB".
func (c *Chain) Name() string {
	if len(c.nfs) == 0 {
		return "empty"
	}
	s := c.nfs[0].Name()
	for _, f := range c.nfs[1:] {
		s += "->" + f.Name()
	}
	return s
}

// Len returns the number of NFs in the chain.
func (c *Chain) Len() int { return len(c.nfs) }

// Last returns the chain's final NF (nil for an empty chain).
func (c *Chain) Last() NF {
	if len(c.nfs) == 0 {
		return nil
	}
	return c.nfs[len(c.nfs)-1]
}

// Process runs the packet through the chain, returning the final verdict
// and the per-stage costs actually incurred (stages after a Drop are not
// charged — the packet never reaches them).
func (c *Chain) Process(pkt *packet.Packet) (Verdict, []StageCost) {
	return c.processInto(make([]StageCost, 0, len(c.nfs)), pkt)
}

// processInto is Process appending the costs to a caller-owned buffer.
func (c *Chain) processInto(costs []StageCost, pkt *packet.Packet) (Verdict, []StageCost) {
	for _, f := range c.nfs {
		v, cy := f.Process(pkt)
		costs = append(costs, StageCost{Name: f.Name(), Cycles: cy})
		if v == Drop {
			return Drop, costs
		}
	}
	return Forward, costs
}
