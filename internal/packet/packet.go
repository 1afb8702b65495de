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
// in, and returns it. It is the one place a packet makes a payload buffer:
// only when the one it holds is too small, and then at the payload's class.
// It is not inlined, so the escape check charges that make to it alone.
//
//pp:zeroalloc
//go:noinline
func (p *Packet) setPayload(head, n int) []byte {
	if cap(p.room) < head+n {
		p.room = make([]byte, (head+n+BufferClass-1)/BufferClass*BufferClass) //pp:alloc-ok warm-up: a recycled packet keeps its buffer, and sources recycle buffers by class
	}
	p.Payload = p.room[head : head+n]
	return p.Payload
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

// parseAt decodes frame into p with the payload head bytes into its buffer.
//
//pp:zeroalloc
func (p *Packet) parseAt(frame []byte, ppOffset, head int) error {
	if err := p.Eth.Unmarshal(frame); err != nil {
		return err
	}
	off := EthernetHeaderLen
	switch p.Eth.EtherType {
	case EtherTypeCR:
		if err := p.parseCompressed(frame[off:]); err != nil {
			return err
		}
		off += CRHeaderLen
	case EtherTypeIPv4:
		if err := p.IP.Unmarshal(frame[off:]); err != nil {
			return err
		}
		off += IPv4HeaderLen
		switch p.IP.Protocol {
		case IPProtoUDP:
			if p.UDP == nil {
				p.UDP = &UDP{} //pp:alloc-ok warm-up: a reused packet keeps its UDP struct across parses
			}
			p.TCP = nil
			if err := p.UDP.Unmarshal(frame[off:]); err != nil {
				return err
			}
			off += UDPHeaderLen
		case IPProtoTCP:
			if p.TCP == nil {
				p.TCP = &TCP{} //pp:alloc-ok warm-up: a reused packet keeps its TCP struct across parses
			}
			p.UDP = nil
			if err := p.TCP.Unmarshal(frame[off:]); err != nil {
				return err
			}
			off += TCPHeaderLen
		default:
			return ErrUnknownL4
		}
		p.CR = nil
	default:
		return ErrNotIPv4
	}
	// What follows the last header is payload, with an optional PayloadPark
	// header ppOffset bytes into it.
	if ppOffset >= 0 {
		if len(frame) < off+ppOffset+PPHeaderLen {
			return fmt.Errorf("payloadpark header at offset %d: %w", ppOffset, ErrTruncated) //pp:alloc-ok error path only; truncated frames are dropped before the steady state
		}
		if p.PP == nil {
			p.PP = &p.ppStore
		}
		if err := p.PP.Unmarshal(frame[off+ppOffset:]); err != nil {
			return err
		}
		p.PPOffset = ppOffset
		// Payload excludes the header: visible prefix + remainder.
		payload := p.setPayload(head, len(frame)-off-PPHeaderLen)
		k := copy(payload, frame[off:off+ppOffset])
		copy(payload[k:], frame[off+ppOffset+PPHeaderLen:])
		return nil
	}
	p.PP = nil
	p.PPOffset = 0
	copy(p.setPayload(head, len(frame)-off), frame[off:])
	return nil
}

// parseCompressed decodes the compression header of an EtherTypeCR frame
// (hdr is what follows Ethernet). The IPv4 and transport headers are
// parked in a switch context table and cannot be recovered from the
// bytes, so IP carries only the protocol the compression header records
// and UDP/TCP are nil until the restore hop reinstates them from the
// context.
func (p *Packet) parseCompressed(hdr []byte) error {
	if p.CR == nil {
		p.CR = &p.crStore
	}
	if err := p.CR.Unmarshal(hdr); err != nil {
		return err
	}
	p.IP = IPv4{Protocol: p.CR.Proto}
	p.UDP, p.TCP = nil, nil
	return nil
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
// and returns the number of bytes written. A PayloadPark header, when
// present, is emitted PPOffset bytes into the payload region.
func (p *Packet) serializeTo(buf []byte) int {
	off := 0
	p.Eth.Marshal(buf[off:])
	off += EthernetHeaderLen
	if p.CR != nil {
		// Compressed wire form: the EtherType announces the compression
		// header and the IPv4/L4 headers stay parked in the context table.
		// The header structs are left untouched — they become authoritative
		// again when the restore hop clears CR.
		binary.BigEndian.PutUint16(buf[EthernetHeaderLen-2:], uint16(EtherTypeCR))
		p.CR.Marshal(buf[off:])
		off += CRHeaderLen
	} else {
		p.IP.Marshal(buf[off:])
		off += IPv4HeaderLen
		switch {
		case p.UDP != nil:
			p.UDP.Marshal(buf[off:])
			off += UDPHeaderLen
		case p.TCP != nil:
			p.TCP.Marshal(buf[off:])
			off += TCPHeaderLen
		}
	}
	if p.PP != nil {
		k := p.PPOffset
		if k > len(p.Payload) {
			k = len(p.Payload)
		}
		off += copy(buf[off:], p.Payload[:k])
		p.PP.Marshal(buf[off:])
		off += PPHeaderLen
		off += copy(buf[off:], p.Payload[k:])
		return off
	}
	copy(buf[off:], p.Payload)
	return off + len(p.Payload)
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
	copy(dst.setPayload(0, len(p.Payload)), p.Payload)
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
