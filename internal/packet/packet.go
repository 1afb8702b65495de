package packet

import (
	"encoding/binary"
	"fmt"
)

// Packet is a parsed network packet. Exactly one of UDP or TCP is non-nil
// after a successful parse of an IPv4 frame. PP is non-nil when the packet
// carries a PayloadPark header (inserted by the switch's Split stage); CR is
// non-nil when the IPv4+L4 headers are parked in a switch context table and
// a compression header rides the wire in their place (EtherTypeCR frames).
//
// Header structs are authoritative: mutate them and call Serialize to get
// wire bytes. Payload holds the payload bytes with the PayloadPark header
// removed; for a split packet this is the original payload minus the
// parked region — the parked bytes live in switch memory.
//
// PPOffset positions the PayloadPark header within the payload region:
// 0 (the prototype's default) puts it directly after the L4 header; a
// deployment using the §7 variable decoupling boundary leaves the first
// PPOffset payload bytes in front of it, visible to Slim-DPI-style NFs.
type Packet struct {
	Eth      Ethernet
	IP       IPv4
	UDP      *UDP
	TCP      *TCP
	PP       *PPHeader
	CR       *CRHeader
	PPOffset int
	Payload  []byte

	// ppStore inlines the PayloadPark header storage so SetPP (and the
	// parsers) can attach one without allocating. PP points here after
	// SetPP, and a clone's at its own. crStore does the same for the
	// compression header.
	ppStore PPHeader
	crStore CRHeader

	// room is the packet's payload buffer from its first byte: every
	// payload the packet builds, parses or clones is written into it (see
	// setPayload), and what lies in front of Payload there is headroom.
	room []byte
}

// BufferClass is the granularity of payload buffers: a packet makes its
// buffer at the payload's size rounded up to a multiple of BufferClass, so
// a pool keyed by cap(buffer)/BufferClass hands every payload of a class a
// buffer that fits it.
const BufferClass = 64

// setPayload points Payload at n bytes of the packet's buffer, head bytes
// in. Only when the buffer it holds is too small does growRoom make one.
//
//pp:zeroalloc
func (p *Packet) setPayload(head, n int) {
	if cap(p.room) < head+n {
		p.growRoom(head + n)
	}
	p.Payload = p.room[head : head+n]
}

// growRoom is the one place a packet makes a payload buffer, at the class
// of n bytes. It is not inlined, so the escape check charges that make to
// it alone.
//
//pp:zeroalloc
//go:noinline
func (p *Packet) growRoom(n int) {
	p.room = make([]byte, (n+BufferClass-1)/BufferClass*BufferClass) //pp:alloc-ok warm-up: a recycled packet keeps its buffer, and sources recycle buffers by class
}

// SwapBuffer makes b the packet's payload buffer and returns the one it
// held, leaving Payload empty. A traffic source keeps retired packets'
// buffers by class this way and gives each new packet one of its own.
func (p *Packet) SwapBuffer(b []byte) []byte {
	old := p.room
	p.room, p.Payload = b[:cap(b)], nil
	return old
}

// Headroom returns the bytes of the packet's buffer in front of Payload —
// the hole a split cut, or the room ParseWithHeadroom left — which a merge
// may fill in place; nil when Payload lies elsewhere (an NF replaced it).
// The buffer's capacity behind Payload is the packet's too.
func (p *Packet) Headroom() []byte {
	off := cap(p.room) - cap(p.Payload)
	if off < 0 || cap(p.Payload) == 0 || &p.room[:off+1][off] != &p.Payload[:1][0] {
		return nil
	}
	return p.room[:off]
}

// SetPP attaches a PayloadPark header to the packet without allocating,
// storing it inline. The switch's Split stage uses this on every tagged
// packet, so it sits on the dataplane hot path.
func (p *Packet) SetPP(h PPHeader) {
	p.ppStore = h
	p.PP = &p.ppStore
}

// SetCR attaches a compression header to the packet without allocating,
// storing it inline. While CR is non-nil the IPv4 and transport header
// structs remain authoritative for NF processing, but the wire form elides
// them: Len, HeaderLen and Serialize emit Ethernet + compression header
// only. The compress-claim action uses this on the dataplane hot path.
func (p *Packet) SetCR(h CRHeader) {
	p.crStore = h
	p.CR = &p.crStore
}

// ParseAt decodes an Ethernet/IPv4/{UDP,TCP} frame whose PayloadPark
// header sits ppOffset bytes into the payload region (the §7 decoupling
// boundary; 0 = right behind the L4 header). ppOffset < 0 parses a frame
// with no PayloadPark header. In the real system the offset is known from
// the ingress port (packets arriving from the NF server carry the
// header), not from the bytes, because the header deliberately has no
// magic number — it replaces payload bytes that nothing else interprets.
func ParseAt(frame []byte, ppOffset int) (*Packet, error) {
	p := &Packet{}
	if err := ParseAtInto(p, frame, ppOffset); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseAtInto is ParseAt parsing into a caller-owned Packet, the
// allocation-free path for scratch reuse on the switch's frame hot path:
// non-nil UDP/TCP/PP header structs are reused rather than reallocated,
// and the payload is copied into the packet's buffer from its first byte.
//
//pp:zeroalloc
func ParseAtInto(p *Packet, frame []byte, ppOffset int) error {
	return p.parseAt(frame, ppOffset, 0)
}

// ParseWithHeadroom is ParseAtInto leaving head bytes of the packet's
// buffer in front of the payload, so a merge of up to head parked bytes
// reassembles in place. Only a frame carrying a PayloadPark header
// (ppOffset >= 0) can merge; any other frame is parsed without room.
func (p *Packet) ParseWithHeadroom(frame []byte, ppOffset, head int) error {
	if ppOffset < 0 {
		head = 0
	}
	return p.parseAt(frame, ppOffset, head)
}

// ipStackLen is the Ethernet and option-less IPv4 headers in front of
// every transport header the parser understands.
const ipStackLen = EthernetHeaderLen + IPv4HeaderLen

// parseAt decodes frame into p with the payload head bytes into its buffer.
// One length check covers the whole header stack — Ethernet, IPv4, UDP or
// TCP and, ppOffset bytes behind them, the PayloadPark header (none when
// ppOffset < 0) — and parseOther takes a frame that fails it.
//
//pp:zeroalloc
func (p *Packet) parseAt(frame []byte, ppOffset, head int) error {
	l4 := 0
	if len(frame) >= ipStackLen && EtherType(binary.BigEndian.Uint16(frame[12:])) == EtherTypeIPv4 && frame[EthernetHeaderLen] == 4<<4|5 {
		l4 = int(transportLen[frame[EthernetHeaderLen+9]])
	}
	off := ipStackLen + l4
	if l4 == 0 || len(frame) < off || ppOffset >= 0 && len(frame) < off+ppOffset+PPHeaderLen {
		var err error
		if off, err = p.parseOther(frame, ppOffset, l4); err != nil {
			return err
		}
	} else {
		hdr := (*[ipStackLen]byte)(frame)
		p.Eth.Dst = MAC(hdr[0:6])
		p.Eth.Src = MAC(hdr[6:12])
		p.Eth.EtherType = EtherTypeIPv4
		p.IP.decode((*[IPv4HeaderLen]byte)(hdr[EthernetHeaderLen:]))
		p.CR = nil
		if l4 == UDPHeaderLen {
			if p.UDP == nil {
				p.UDP = &UDP{} //pp:alloc-ok warm-up: a reused packet keeps its UDP struct across parses
			}
			p.TCP = nil
			p.UDP.decode((*[UDPHeaderLen]byte)(frame[ipStackLen:]))
		} else {
			if p.TCP == nil {
				p.TCP = &TCP{} //pp:alloc-ok warm-up: a reused packet keeps its TCP struct across parses
			}
			p.UDP = nil
			p.TCP.decode((*[TCPHeaderLen]byte)(frame[ipStackLen:]))
		}
	}
	// What follows the last header is payload, with an optional PayloadPark
	// header ppOffset bytes into it.
	if ppOffset < 0 {
		p.PP, p.PPOffset = nil, 0
		p.setPayload(head, len(frame)-off)
		copy(p.Payload, frame[off:])
		return nil
	}
	if p.PP == nil {
		p.PP = &p.ppStore
	}
	if err := p.PP.decode((*[PPHeaderLen]byte)(frame[off+ppOffset:])); err != nil {
		return err
	}
	p.PPOffset = ppOffset
	// Payload excludes the header: visible prefix + remainder.
	p.setPayload(head, len(frame)-off-PPHeaderLen)
	if ppOffset > 0 { // a copy of nothing still costs a call
		copy(p.Payload, frame[off:off+ppOffset])
	}
	copy(p.Payload[ppOffset:], frame[off+ppOffset+PPHeaderLen:])
	return nil
}

// transportLen is the header length of each transport the parser
// understands, by IP protocol number; 0 for any other.
var transportLen = [256]uint8{IPProtoUDP: UDPHeaderLen, IPProtoTCP: TCPHeaderLen}

// parseOther parses the headers of a frame parseAt's check refused, given
// the transport header length l4 it read: a compression frame, or a frame
// whose first header at fault the error names.
func (p *Packet) parseOther(frame []byte, ppOffset, l4 int) (int, error) {
	if len(frame) < EthernetHeaderLen {
		return 0, fmt.Errorf("ethernet header: %w", ErrTruncated)
	}
	off := ipStackLen + l4
	switch et := EtherType(binary.BigEndian.Uint16(frame[12:])); {
	case et == EtherTypeCR:
		// The IPv4 and transport headers are parked in a switch context
		// table, so IP carries only the protocol the compression header
		// records and UDP/TCP are nil until the restore hop reinstates them.
		off, p.Eth = EthernetHeaderLen+CRHeaderLen, Ethernet{Dst: MAC(frame[0:6]), Src: MAC(frame[6:12]), EtherType: EtherTypeCR}
		if p.CR == nil {
			p.CR = &p.crStore
		}
		if err := p.CR.Unmarshal(frame[EthernetHeaderLen:]); err != nil {
			return 0, err
		}
		p.IP, p.UDP, p.TCP = IPv4{Protocol: p.CR.Proto}, nil, nil
	case et != EtherTypeIPv4:
		return 0, ErrNotIPv4
	case len(frame) < ipStackLen || frame[EthernetHeaderLen] != 4<<4|5:
		return 0, p.IP.Unmarshal(frame[EthernetHeaderLen:]) // the header's own error: truncated, version or options
	case l4 == 0:
		return 0, ErrUnknownL4
	case len(frame) < off && l4 == UDPHeaderLen:
		return 0, fmt.Errorf("udp header: %w", ErrTruncated)
	case len(frame) < off:
		return 0, fmt.Errorf("tcp header: %w", ErrTruncated)
	}
	if ppOffset >= 0 && len(frame) < off+ppOffset+PPHeaderLen {
		return 0, fmt.Errorf("payloadpark header at offset %d: %w", ppOffset, ErrTruncated)
	}
	return off, nil
}

// l4Len returns the length of the transport header.
func (p *Packet) l4Len() int {
	if p.UDP != nil {
		return UDPHeaderLen
	}
	if p.TCP != nil {
		return TCPHeaderLen
	}
	return 0
}

// HeaderLen returns the total header bytes on the wire, including the
// PayloadPark header when present. A compressed packet carries the
// compression header in place of the IPv4 and transport headers.
func (p *Packet) HeaderLen() int {
	var n int
	if p.CR != nil {
		n = EthernetHeaderLen + CRHeaderLen
	} else {
		n = EthernetHeaderLen + IPv4HeaderLen + p.l4Len()
	}
	if p.PP != nil {
		n += PPHeaderLen
	}
	return n
}

// Len returns the full wire length of the packet in bytes (excluding
// Ethernet FCS/preamble, which the link model accounts separately).
func (p *Packet) Len() int { return p.HeaderLen() + len(p.Payload) }

// Serialize renders the packet to a freshly allocated frame buffer.
func (p *Packet) Serialize() []byte {
	buf := make([]byte, p.Len())
	p.serializeTo(buf)
	return buf
}

// AppendSerialize appends the packet's wire bytes to buf and returns the
// extended slice. Callers on the hot path pass a reused buffer (typically
// buf[:0]) so steady-state serialization does not allocate. A buffer that
// must grow doubles, so one filled frame by frame is copied O(1) times per
// byte.
//
//pp:zeroalloc
func (p *Packet) AppendSerialize(buf []byte) []byte {
	n := p.Len()
	off := len(buf)
	if cap(buf)-off < n {
		grown := make([]byte, off+n, 2*(off+n)) //pp:alloc-ok grow path; hot callers pass a reused buf sized by prior rounds
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:off+n]
	}
	p.serializeTo(buf[off:])
	return buf
}

// serializeTo renders the packet into buf, which must hold Len() bytes,
// and returns the number of bytes written: the header stack, each header
// encoded whole, then the payload with the PayloadPark header, when
// present, PPOffset bytes into it.
func (p *Packet) serializeTo(buf []byte) int {
	et, off := p.Eth.EtherType, ipStackLen
	switch {
	case p.CR != nil:
		// Compressed wire form: the EtherType announces the compression
		// header and the IPv4/L4 headers stay parked in the context table.
		// The header structs are left untouched — they become authoritative
		// again when the restore hop clears CR.
		et, off = EtherTypeCR, EthernetHeaderLen+CRHeaderLen
		p.CR.Marshal(buf[EthernetHeaderLen:off])
	case p.UDP != nil:
		off += UDPHeaderLen
		p.UDP.Marshal(buf[ipStackLen:off])
	case p.TCP != nil:
		off += TCPHeaderLen
		p.TCP.encode((*[TCPHeaderLen]byte)(buf[ipStackLen:off]))
	}
	h := (*[EthernetHeaderLen]byte)(buf)
	*(*MAC)(h[0:6]) = p.Eth.Dst
	*(*MAC)(h[6:12]) = p.Eth.Src
	binary.BigEndian.PutUint16(h[12:], uint16(et))
	if p.CR == nil {
		p.IP.Marshal(buf[EthernetHeaderLen:])
	}
	if p.PP != nil {
		k := min(p.PPOffset, len(p.Payload))
		if k > 0 {
			off += copy(buf[off:], p.Payload[:k])
		}
		p.PP.Marshal(buf[off:])
		off += PPHeaderLen
		return off + copy(buf[off:], p.Payload[k:])
	}
	return off + copy(buf[off:], p.Payload)
}

// Clone deep-copies the packet into a fresh one.
func (p *Packet) Clone() *Packet { return p.CloneInto(&Packet{}) }

// CloneInto deep-copies the packet into dst, reusing dst's header
// structs and payload buffer — the allocation-free Clone for
// pooled packets (pcap replay at scale reuses retired packets this way).
//
//pp:zeroalloc
func (p *Packet) CloneInto(dst *Packet) *Packet {
	udp, tcp, room := dst.UDP, dst.TCP, dst.room
	*dst = *p
	dst.room = room
	dst.UDP, dst.TCP = nil, nil
	if p.UDP != nil {
		if udp == nil {
			udp = &UDP{} //pp:alloc-ok warm-up: a reused dst keeps its UDP struct across clones
		}
		*udp = *p.UDP
		dst.UDP = udp
	}
	if p.TCP != nil {
		if tcp == nil {
			tcp = &TCP{} //pp:alloc-ok warm-up: a reused dst keeps its TCP struct across clones
		}
		*tcp = *p.TCP
		dst.TCP = tcp
	}
	if p.PP != nil {
		dst.ppStore = *p.PP
		dst.PP = &dst.ppStore
	} else {
		dst.PP = nil
	}
	if p.CR != nil {
		dst.crStore = *p.CR
		dst.CR = &dst.crStore
	} else {
		dst.CR = nil
	}
	dst.setPayload(0, len(p.Payload))
	copy(dst.Payload, p.Payload)
	return dst
}

// FiveTuple returns the flow key examined by shallow NFs.
func (p *Packet) FiveTuple() FiveTuple {
	ft := FiveTuple{SrcIP: p.IP.Src, DstIP: p.IP.Dst, Protocol: p.IP.Protocol}
	switch {
	case p.UDP != nil:
		ft.SrcPort, ft.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	case p.TCP != nil:
		ft.SrcPort, ft.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	}
	return ft
}

// SrcPort returns the L4 source port (0 if no transport header).
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.SrcPort
	case p.TCP != nil:
		return p.TCP.SrcPort
	}
	return 0
}

// DstPort returns the L4 destination port (0 if no transport header).
func (p *Packet) DstPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.DstPort
	case p.TCP != nil:
		return p.TCP.DstPort
	}
	return 0
}

// SetPorts rewrites the L4 ports, applying incremental checksum updates so
// that a checksum computed over the original full payload remains
// consistent (this is what keeps NAT transparent to PayloadPark: the switch
// never needs to recompute an L4 checksum).
func (p *Packet) SetPorts(src, dst uint16) {
	switch {
	case p.UDP != nil:
		if p.UDP.Checksum != 0 {
			p.UDP.Checksum = ChecksumUpdate16(p.UDP.Checksum, p.UDP.SrcPort, src)
			p.UDP.Checksum = ChecksumUpdate16(p.UDP.Checksum, p.UDP.DstPort, dst)
		}
		p.UDP.SrcPort, p.UDP.DstPort = src, dst
	case p.TCP != nil:
		p.TCP.Checksum = ChecksumUpdate16(p.TCP.Checksum, p.TCP.SrcPort, src)
		p.TCP.Checksum = ChecksumUpdate16(p.TCP.Checksum, p.TCP.DstPort, dst)
		p.TCP.SrcPort, p.TCP.DstPort = src, dst
	}
}

// SetSrcIP rewrites the IPv4 source address with incremental updates to the
// IPv4 header checksum and the L4 checksum (which covers the pseudo-header).
func (p *Packet) SetSrcIP(ip IPv4Addr) {
	old := p.IP.Src.Uint32()
	p.IP.Checksum = ChecksumUpdate32(p.IP.Checksum, old, ip.Uint32())
	p.updateL4PseudoChecksum(old, ip.Uint32())
	p.IP.Src = ip
}

// SetDstIP rewrites the IPv4 destination address; see SetSrcIP.
func (p *Packet) SetDstIP(ip IPv4Addr) {
	old := p.IP.Dst.Uint32()
	p.IP.Checksum = ChecksumUpdate32(p.IP.Checksum, old, ip.Uint32())
	p.updateL4PseudoChecksum(old, ip.Uint32())
	p.IP.Dst = ip
}

func (p *Packet) updateL4PseudoChecksum(oldIP, newIP uint32) {
	switch {
	case p.UDP != nil:
		if p.UDP.Checksum != 0 {
			p.UDP.Checksum = ChecksumUpdate32(p.UDP.Checksum, oldIP, newIP)
		}
	case p.TCP != nil:
		p.TCP.Checksum = ChecksumUpdate32(p.TCP.Checksum, oldIP, newIP)
	}
}

// String renders a compact one-line description for debugging.
func (p *Packet) String() string {
	pp := ""
	if p.PP != nil {
		pp = fmt.Sprintf(" pp{enb=%t op=%d ti=%d clk=%d}", p.PP.Enabled, p.PP.Op, p.PP.Tag.TableIndex, p.PP.Tag.Clock)
	}
	if p.CR != nil {
		pp += fmt.Sprintf(" cr{proto=%d ti=%d clk=%d}", p.CR.Proto, p.CR.Tag.TableIndex, p.CR.Tag.Clock)
	}
	return fmt.Sprintf("%s len=%d%s", p.FiveTuple(), p.Len(), pp)
}
