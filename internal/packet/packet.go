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
	// SetPP; Clone preserves the aliasing. crStore does the same for the
	// compression header.
	ppStore PPHeader
	crStore CRHeader

	// headroom is the scratch region stashed by StashHeadroom; see there.
	headroom []byte
	room     []byte // ParseWithHeadroom's buffer from its first byte; copies never share it
}

// StashHeadroom records scratch bytes that sit immediately in front of
// Payload in its backing array — the hole the switch's Split deparser cuts,
// or the room ParseWithHeadroom leaves — so a later Merge can reassemble
// the payload in place instead of allocating; Headroom validates the
// placement before the stash is trusted.
func (p *Packet) StashHeadroom(h []byte) { p.headroom = h }

// Headroom returns the stashed headroom if it still directly precedes the
// current Payload in its backing array (an NF's new payload or a merge
// invalidates it) or the payload is empty; otherwise nil. Reading consumes
// nothing: a hop that neither splits nor merges leaves it to the merging one.
func (p *Packet) Headroom() []byte {
	h, n := p.headroom, len(p.headroom)
	if len(p.Payload) == 0 || cap(h) > n && &h[:n+1][n] == &p.Payload[0] {
		return h
	}
	return nil
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
// and the payload is appended into Payload's existing backing array
// (sliced to length zero first). Callers that pre-position Payload inside
// a larger buffer keep that placement as long as the capacity suffices.
//
//pp:zeroalloc
func ParseAtInto(p *Packet, frame []byte, ppOffset int) error {
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
	p.headroom = nil
	payload := p.Payload[:0]
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
		payload = append(payload, frame[off:off+ppOffset]...)
		p.Payload = append(payload, frame[off+ppOffset+PPHeaderLen:]...) //pp:alloc-ok grows p.Payload's reused backing (payload aliases it); amortized warm-up
		return nil
	}
	p.PP = nil
	p.PPOffset = 0
	p.Payload = append(payload, frame[off:]...) //pp:alloc-ok grows p.Payload's reused backing (payload aliases it); amortized warm-up
	return nil
}

// ParseWithHeadroom is ParseAtInto into the packet's reused buffer, head
// bytes in, stashing those bytes as headroom so a merge of up to head parked
// bytes reassembles in place.
func (p *Packet) ParseWithHeadroom(frame []byte, ppOffset, head int) error {
	if cap(p.room) < head+len(frame) {
		p.room = make([]byte, 2*(head+len(frame)))
	}
	p.Payload = p.room[head:head]
	err := ParseAtInto(p, frame, ppOffset)
	p.headroom = p.room[:head]
	return err
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

// Clone deep-copies the packet.
func (p *Packet) Clone() *Packet {
	c := *p
	if p.UDP != nil {
		u := *p.UDP
		c.UDP = &u
	}
	if p.TCP != nil {
		t := *p.TCP
		c.TCP = &t
	}
	if p.PP != nil {
		if p.PP == &p.ppStore {
			c.PP = &c.ppStore
		} else {
			pp := *p.PP
			c.PP = &pp
		}
	}
	if p.CR != nil {
		if p.CR == &p.crStore {
			c.CR = &c.crStore
		} else {
			cr := *p.CR
			c.CR = &cr
		}
	}
	c.Payload = append([]byte(nil), p.Payload...)
	c.headroom, c.room = nil, nil // the copy's payload lives in a fresh backing array
	return &c
}

// CloneInto deep-copies the packet into dst, reusing dst's header
// structs and payload backing array — the allocation-free Clone for
// pooled packets (pcap replay at scale reuses retired packets this way).
//
//pp:zeroalloc
func (p *Packet) CloneInto(dst *Packet) *Packet {
	udp, tcp, payload, room := dst.UDP, dst.TCP, dst.Payload, dst.room
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
	dst.Payload = append(payload[:0], p.Payload...) //pp:alloc-ok grows dst.Payload's reused backing; amortized warm-up
	dst.headroom = nil
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
