package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PayloadPark header (paper Fig. 2).
//
// The header is inserted by the Split stage directly after the L4 header —
// i.e. it replaces the leading bytes of the payload region — so shallow NFs,
// which never read past the 5-tuple, forward it untouched (§5, "NF framework
// integration").
//
// Wire layout (7 bytes):
//
//	byte 0: ENB(1 bit) | OP(1 bit) | ALIGN(6 bits, zero)
//	bytes 1-6: TAG(48 bits) = TableIndex(16) | Clock(16) | CRC(16)
//
// The paper states the tagger uses "two 2-byte registers for the table
// index and the clock counter" (§5), which fixes TableIndex and Clock at 16
// bits each; the remaining 16 tag bits carry the CRC that validates the tag
// before Merge touches stateful memory (§3.2).
const (
	// PPHeaderLen is the on-wire size of the PayloadPark header.
	PPHeaderLen = 7

	ppENBBit = 0x80
	ppOPBit  = 0x40
)

// PPOp selects the operation requested of the Merge pipeline (§3.2, §6.2.4).
type PPOp uint8

// Operations encoded in the OP bit.
const (
	// PPOpMerge asks the switch to re-attach the parked payload.
	PPOpMerge PPOp = 0
	// PPOpExplicitDrop tells the switch the NF dropped the packet: reclaim
	// the slot, forward nothing (§6.2.4).
	PPOpExplicitDrop PPOp = 1
)

// Tag uniquely identifies a parked payload (§3.2): an index into the lookup
// table, the generation (clock) number that disambiguates reuse of the
// index, and a CRC over both.
type Tag struct {
	TableIndex uint16
	Clock      uint16
	CRC        uint16
}

// ComputeCRC returns the CRC the tag should carry for its index and clock.
func (t Tag) ComputeCRC() uint16 {
	var b [4]byte
	binary.BigEndian.PutUint16(b[0:2], t.TableIndex)
	binary.BigEndian.PutUint16(b[2:4], t.Clock)
	return CRC16(b[:])
}

// Valid reports whether the stored CRC matches the index and clock.
func (t Tag) Valid() bool { return t.CRC == t.ComputeCRC() }

// Seal fills in the CRC for the current index and clock and returns the tag.
func (t Tag) Seal() Tag {
	t.CRC = t.ComputeCRC()
	return t
}

// PPHeader is the parsed PayloadPark header.
type PPHeader struct {
	Enabled bool // ENB: payload successfully parked
	Op      PPOp // OP: Merge or Explicit Drop
	Tag     Tag
}

// ErrBadPPHeader reports a PayloadPark header whose reserved ALIGN bits are
// non-zero, which can only result from corruption or a non-PayloadPark
// packet being parsed as one.
var ErrBadPPHeader = errors.New("packet: malformed PayloadPark header")

// Unmarshal decodes the header from b.
func (h *PPHeader) Unmarshal(b []byte) error {
	if len(b) < PPHeaderLen {
		return fmt.Errorf("payloadpark header: %w", ErrTruncated)
	}
	return h.decode((*[PPHeaderLen]byte)(b))
}

// decode fills h from the header's bytes, refusing set ALIGN bits.
func (h *PPHeader) decode(b *[PPHeaderLen]byte) error {
	if b[0]&0x3f != 0 {
		return ErrBadPPHeader
	}
	h.Enabled, h.Op = b[0]&ppENBBit != 0, PPOp(b[0]&ppOPBit>>6)
	h.Tag.TableIndex, h.Tag.Clock, h.Tag.CRC = binary.BigEndian.Uint16(b[1:]), binary.BigEndian.Uint16(b[3:]), binary.BigEndian.Uint16(b[5:])
	return nil
}

// Marshal encodes the header into b, which must hold PPHeaderLen bytes.
func (h *PPHeader) Marshal(b []byte) {
	b = b[:PPHeaderLen]
	var b0 byte
	if h.Enabled {
		b0 |= ppENBBit
	}
	if h.Op == PPOpExplicitDrop {
		b0 |= ppOPBit
	}
	b[0] = b0
	binary.BigEndian.PutUint16(b[1:], h.Tag.TableIndex)
	binary.BigEndian.PutUint16(b[3:], h.Tag.Clock)
	binary.BigEndian.PutUint16(b[5:], h.Tag.CRC)
}
