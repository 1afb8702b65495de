package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Parse/serialize errors.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrNotIPv4     = errors.New("packet: not an IPv4 packet")
	ErrIPv4Options = errors.New("packet: IPv4 options unsupported")
	ErrUnknownL4   = errors.New("packet: unknown transport protocol")
)

// Ethernet is a DIX Ethernet II header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType EtherType
}

// IPv4 is an IPv4 header without options (IHL=5), as carried by the
// paper's workloads.
type IPv4 struct {
	TOS         uint8
	TotalLength uint16
	ID          uint16
	Flags       uint8 // 3 bits
	FragOffset  uint16
	TTL         uint8
	Protocol    IPProtocol
	Checksum    uint16
	Src         IPv4Addr
	Dst         IPv4Addr
}

// Unmarshal decodes the header from b.
func (h *IPv4) Unmarshal(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return fmt.Errorf("ipv4 header: %w", ErrTruncated)
	}
	if v := b[0] >> 4; v != 4 {
		return ErrNotIPv4
	}
	if ihl := b[0] & 0x0f; ihl != 5 {
		return ErrIPv4Options
	}
	h.decode((*[IPv4HeaderLen]byte)(b))
	return nil
}

// decode fills h from an option-less header whose version the caller checked.
func (h *IPv4) decode(b *[IPv4HeaderLen]byte) {
	h.TOS, h.TotalLength, h.ID = b[1], binary.BigEndian.Uint16(b[2:]), binary.BigEndian.Uint16(b[4:])
	h.Flags, h.FragOffset, h.TTL, h.Protocol = b[6]>>5, binary.BigEndian.Uint16(b[6:])&0x1fff, b[8], IPProtocol(b[9])
	h.Checksum = binary.BigEndian.Uint16(b[10:])
	h.Src = IPv4Addr(b[12:16])
	h.Dst = IPv4Addr(b[16:20])
}

// Marshal encodes the header into b, which must hold IPv4HeaderLen bytes.
// The stored Checksum field is written verbatim; call UpdateChecksum or
// SetChecksum first if fields changed.
func (h *IPv4) Marshal(b []byte) {
	a := (*[IPv4HeaderLen]byte)(b)
	binary.BigEndian.PutUint32(a[0:], (4<<4|5)<<24|uint32(h.TOS)<<16|uint32(h.TotalLength))
	binary.BigEndian.PutUint64(a[4:], uint64(h.ID)<<48|uint64(uint16(h.Flags)<<13|h.FragOffset&0x1fff)<<32|
		uint64(h.TTL)<<24|uint64(h.Protocol)<<16|uint64(h.Checksum))
	*(*IPv4Addr)(a[12:16]) = h.Src
	*(*IPv4Addr)(a[16:20]) = h.Dst
}

// ComputeChecksum returns the correct header checksum for the current
// field values.
func (h *IPv4) ComputeChecksum() uint16 {
	var tmp [IPv4HeaderLen]byte
	saved := h.Checksum
	h.Checksum = 0
	h.Marshal(tmp[:])
	h.Checksum = saved
	return Checksum(tmp[:])
}

// UpdateChecksum recomputes and stores the header checksum.
func (h *IPv4) UpdateChecksum() { h.Checksum = h.ComputeChecksum() }

// ChecksumValid reports whether the stored checksum matches the fields.
func (h *IPv4) ChecksumValid() bool { return h.Checksum == h.ComputeChecksum() }

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Unmarshal decodes the header from b.
func (h *UDP) Unmarshal(b []byte) error {
	if len(b) < UDPHeaderLen {
		return fmt.Errorf("udp header: %w", ErrTruncated)
	}
	h.decode((*[UDPHeaderLen]byte)(b))
	return nil
}

// decode fills h from the header's bytes.
func (h *UDP) decode(b *[UDPHeaderLen]byte) {
	h.SrcPort, h.DstPort = binary.BigEndian.Uint16(b[0:]), binary.BigEndian.Uint16(b[2:])
	h.Length, h.Checksum = binary.BigEndian.Uint16(b[4:]), binary.BigEndian.Uint16(b[6:])
}

// Marshal encodes the header into b, which must hold UDPHeaderLen bytes.
func (h *UDP) Marshal(b []byte) {
	binary.BigEndian.PutUint64(b, uint64(h.SrcPort)<<48|uint64(h.DstPort)<<32|uint64(h.Length)<<16|uint64(h.Checksum))
}

// TCP is a TCP header without options (data offset 5). The paper's traffic
// is UDP, but the decoupling-boundary discussion (§7) covers TCP, so the
// parser understands it.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
}

// decode and encode are the TCP header's codec, on its bytes.
func (h *TCP) decode(b *[TCPHeaderLen]byte) {
	h.SrcPort, h.DstPort, h.Seq, h.Ack = binary.BigEndian.Uint16(b[0:]), binary.BigEndian.Uint16(b[2:]), binary.BigEndian.Uint32(b[4:]), binary.BigEndian.Uint32(b[8:])
	h.Flags, h.Window, h.Checksum, h.Urgent = b[13], binary.BigEndian.Uint16(b[14:]), binary.BigEndian.Uint16(b[16:]), binary.BigEndian.Uint16(b[18:])
}

func (h *TCP) encode(b *[TCPHeaderLen]byte) {
	binary.BigEndian.PutUint32(b[0:], uint32(h.SrcPort)<<16|uint32(h.DstPort))
	binary.BigEndian.PutUint64(b[4:], uint64(h.Seq)<<32|uint64(h.Ack))
	binary.BigEndian.PutUint64(b[12:], 5<<60|uint64(h.Flags)<<48|uint64(h.Window)<<32|uint64(h.Checksum)<<16|uint64(h.Urgent))
}
