package rmt

import (
	"github.com/payloadpark/payloadpark/internal/packet"
)

// Parser models the programmable parser in front of the match-action
// pipeline. It turns a parsed packet into a PHV: header fields become
// visible to MATs, and — when configured — the leading payload bytes are
// lifted into the PHV's park region so stages can park them in registers.
//
// Whether an arriving frame carries a PayloadPark header is decided per
// port (the paper disambiguates Split vs. Merge traffic by switch port,
// §5) by whoever parses the bytes — core.Switch.PPOffset — before the
// parsed packet reaches FillPHV.
type Parser struct {
	blocks     int // payload blocks extracted into the PHV
	blockBytes int // bytes per block
	parkOffset int // payload bytes left in front of the parked region
}

// phvBits reports the PHV bits the payload blocks and the visible prefix
// consume.
func (p *Parser) phvBits() int { return (p.blocks*p.blockBytes + p.parkOffset) * 8 }

// FillPHV clears phv of its last pass and populates it from an
// already-parsed packet arriving on port, without allocating. It is the one
// place a PHV is cleared: a pooled PHV carries nothing from its last pass.
//
// Payload-block extraction only succeeds when the payload is large enough
// to fill every configured block; otherwise the park region stays empty and
// the MetaPayloadOK flag stays 0, which is how the dataplane program knows to
// skip the Split path for small payloads (§5: "We apply the Split
// operation only when the payload length exceeds the number of per-packet
// bytes that we can store").
func (p *Parser) FillPHV(phv *PHV, pkt *packet.Packet, port PortID) {
	*phv = PHV{Pkt: pkt, InPort: port}
	if end := p.parkOffset + p.blocks*p.blockBytes; p.blocks > 0 && len(pkt.Payload) >= end && pkt.PP == nil {
		phv.Park = pkt.Payload[p.parkOffset:end]
		phv.SetMeta(MetaPayloadOK, 1)
	}
}
