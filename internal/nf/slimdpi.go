package nf

import (
	"bytes"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// SlimDPI cycle-cost model: per-byte scanning over the inspected prefix.
const (
	slimDPIBaseCycles    = 80
	slimDPIPerByteCycles = 2
)

// SlimDPI is a lightweight deep-packet-inspection NF in the style of
// Fernandes et al. (cited by the paper in §7): it classifies packets by
// scanning only the first PrefixLen bytes of the payload for byte
// signatures, dropping matches.
//
// SlimDPI is the motivating NF for the variable decoupling boundary: with
// Config.BoundaryOffset >= PrefixLen the inspected prefix travels to the
// NF server in front of the PayloadPark header, so SlimDPI works
// unmodified on split packets.
type SlimDPI struct {
	prefixLen  int
	signatures [][]byte
	matched    uint64
}

// NewSlimDPI builds the classifier. Packets whose first prefixLen payload
// bytes contain any signature are dropped.
func NewSlimDPI(prefixLen int, signatures [][]byte) *SlimDPI {
	sigs := make([][]byte, len(signatures))
	for i, s := range signatures {
		sigs[i] = append([]byte(nil), s...)
	}
	return &SlimDPI{prefixLen: prefixLen, signatures: sigs}
}

// Name implements NF.
func (d *SlimDPI) Name() string { return "SlimDPI" }

// Matched returns how many packets matched a signature (and dropped).
func (d *SlimDPI) Matched() uint64 { return d.matched }

// Process implements NF.
func (d *SlimDPI) Process(pkt *packet.Packet) (Verdict, uint64) {
	n := d.prefixLen
	if n > len(pkt.Payload) {
		n = len(pkt.Payload)
	}
	window := pkt.Payload[:n]
	cycles := uint64(slimDPIBaseCycles + n*slimDPIPerByteCycles)
	for _, sig := range d.signatures {
		if len(sig) > 0 && bytes.Contains(window, sig) {
			d.matched++
			return Drop, cycles
		}
	}
	return Forward, cycles
}
