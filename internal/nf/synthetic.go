package nf

import "github.com/payloadpark/payloadpark/internal/packet"

// MACSwap swaps the Ethernet source and destination addresses; it is the
// NF the paper uses for the multi-server experiment and the functional-
// equivalence validation ("a single NF that swaps MAC addresses", §6.2.6).
type MACSwap struct{}

// macSwapCycles is roughly what a two-field rewrite costs.
const macSwapCycles = 30

// Name implements NF.
func (MACSwap) Name() string { return "MACSwap" }

// Process implements NF.
func (MACSwap) Process(pkt *packet.Packet) (Verdict, uint64) {
	pkt.Eth.Src, pkt.Eth.Dst = pkt.Eth.Dst, pkt.Eth.Src
	return Forward, macSwapCycles
}

// Synthetic is the paper's variable-cost NF: "we take a MAC address
// swapper and add a busy loop" (§6.1). The paper's three calibration
// points (§6.3.3) are Fig. 15's NF-Light, NF-Medium and NF-Heavy in
// internal/harness.
type Synthetic struct {
	name   string
	cycles uint64
}

// NewSynthetic builds a MAC-swapping NF that costs the given cycles.
func NewSynthetic(name string, cycles uint64) *Synthetic {
	return &Synthetic{name: name, cycles: cycles}
}

// Name implements NF.
func (s *Synthetic) Name() string { return s.name }

// Cycles returns the configured per-packet cost.
func (s *Synthetic) Cycles() uint64 { return s.cycles }

// Process implements NF.
func (s *Synthetic) Process(pkt *packet.Packet) (Verdict, uint64) {
	pkt.Eth.Src, pkt.Eth.Dst = pkt.Eth.Dst, pkt.Eth.Src
	return Forward, s.cycles
}
