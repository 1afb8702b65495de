package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ROHC-style header-compression header.
//
// The compression policy (internal/prog's HeaderCompressSpec) is the sibling
// of payload parking: where parking detaches payload bytes and leaves the
// headers on the wire, compression detaches the IPv4+L4 *headers* into a
// switch-resident context table and replaces them with this 7-byte header,
// to be restored at the egress-adjacent hop. The tag discipline is identical
// to the PayloadPark header: a table index into the context table, a
// generation clock, and a CRC sealing both.
//
// Wire layout (7 bytes), directly after the Ethernet header, announced by
// EtherTypeCR:
//
//	byte 0: ENB(1 bit, always set) | PROTO(1 bit: 0 UDP, 1 TCP) | ALIGN(6 bits, zero)
//	bytes 1-6: TAG(48 bits) = TableIndex(16) | Clock(16) | CRC(16)
const (
	// CRHeaderLen is the on-wire size of the compression header.
	CRHeaderLen = 7

	crENBBit = 0x80
	crTCPBit = 0x40
)

// EtherTypeCR announces a compressed packet: the IPv4 and transport headers
// are parked in a switch context table and this EtherType carries the
// restore tag instead. 0x88B5 is the IEEE 802 local-experimental EtherType,
// appropriate for a link-local encoding that never leaves the fabric.
const EtherTypeCR EtherType = 0x88B5

// CRHeader is the parsed compression header.
type CRHeader struct {
	Proto IPProtocol // transport protocol of the parked headers
	Tag   Tag
}

// ErrBadCRHeader reports a compression header whose reserved ALIGN bits are
// non-zero or whose ENB bit is clear, which can only result from corruption.
var ErrBadCRHeader = errors.New("packet: malformed compression header")

// Unmarshal decodes the header from b.
func (h *CRHeader) Unmarshal(b []byte) error {
	if len(b) < CRHeaderLen {
		return fmt.Errorf("compression header: %w", ErrTruncated)
	}
	if b[0]&0x3f != 0 || b[0]&crENBBit == 0 {
		return ErrBadCRHeader
	}
	if b[0]&crTCPBit != 0 {
		h.Proto = IPProtoTCP
	} else {
		h.Proto = IPProtoUDP
	}
	h.Tag.TableIndex = binary.BigEndian.Uint16(b[1:3])
	h.Tag.Clock = binary.BigEndian.Uint16(b[3:5])
	h.Tag.CRC = binary.BigEndian.Uint16(b[5:7])
	return nil
}

// Marshal encodes the header into b, which must hold CRHeaderLen bytes.
func (h *CRHeader) Marshal(b []byte) {
	b0 := byte(crENBBit)
	if h.Proto == IPProtoTCP {
		b0 |= crTCPBit
	}
	b[0] = b0
	binary.BigEndian.PutUint16(b[1:3], h.Tag.TableIndex)
	binary.BigEndian.PutUint16(b[3:5], h.Tag.Clock)
	binary.BigEndian.PutUint16(b[5:7], h.Tag.CRC)
}
