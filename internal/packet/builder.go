package packet

import "encoding/binary"

// Builder constructs well-formed UDP packets for generators and tests.
// The zero value is not useful; use NewBuilder.
type Builder struct {
	srcMAC, dstMAC MAC
	ttl            uint8
}

// NewBuilder returns a Builder with the testbed's fixed L2 endpoints.
func NewBuilder(srcMAC, dstMAC MAC) *Builder {
	return &Builder{srcMAC: srcMAC, dstMAC: dstMAC, ttl: 64}
}

// UDP builds a UDP packet with the given flow key and total wire size
// (Ethernet through payload, no FCS). totalSize must be at least
// HeaderUnitLen (42). The payload is a deterministic function of the
// flow's source address and port and the packet id: those, stamped into
// its first 8 bytes, then a window of the pseudo-random template whose
// offset they select — so two packets of different flows or ids never
// carry equal payloads, and a corrupted or mis-merged payload anywhere in
// the pipeline fails a byte compare.
func (b *Builder) UDP(ft FiveTuple, totalSize int, id uint16) *Packet {
	return b.UDPInto(&Packet{}, ft, totalSize, id)
}

// UDPInto is UDP writing into a caller-owned (typically recycled) Packet,
// reusing its UDP header struct and payload buffer so steady-state
// generation does not allocate. Every other field is rewritten; no state
// of the packet's previous life survives.
//
//pp:zeroalloc
func (b *Builder) UDPInto(p *Packet, ft FiveTuple, totalSize int, id uint16) *Packet {
	if totalSize < HeaderUnitLen {
		totalSize = HeaderUnitLen
	}
	payloadLen := totalSize - HeaderUnitLen
	udp := p.UDP
	if udp == nil {
		udp = &UDP{} //pp:alloc-ok warm-up: a recycled packet keeps its UDP struct
	}
	*p = Packet{
		Eth: Ethernet{Dst: b.dstMAC, Src: b.srcMAC, EtherType: EtherTypeIPv4},
		IP: IPv4{
			TotalLength: uint16(totalSize - EthernetHeaderLen),
			ID:          id,
			TTL:         b.ttl,
			Protocol:    IPProtoUDP,
			Src:         ft.SrcIP,
			Dst:         ft.DstIP,
		},
		UDP:  udp,
		room: p.room,
	}
	p.setPayload(0, payloadLen)
	b.payload(p.Payload, ft, id)
	*udp = UDP{
		SrcPort: ft.SrcPort,
		DstPort: ft.DstPort,
		Length:  uint16(UDPHeaderLen + payloadLen),
	}
	p.IP.UpdateChecksum()
	return p
}

// TCP builds a TCP packet with the given flow key and total wire size,
// mirroring UDP: the UDP packet with the same payload bytes, re-headed. The
// paper's prototype "works with all protocols" (§7); TCP traffic exercises
// the same parking path with a 20-byte L4 header.
func (b *Builder) TCP(ft FiveTuple, totalSize int, seq uint32, id uint16) *Packet {
	p := b.UDP(ft, totalSize-TCPHeaderLen+UDPHeaderLen, id)
	p.UDP, p.IP.Protocol = nil, IPProtoTCP
	p.TCP = &TCP{SrcPort: ft.SrcPort, DstPort: ft.DstPort, Seq: seq, Flags: 0x18, Window: 65535}
	p.IP.TotalLength += TCPHeaderLen - UDPHeaderLen
	p.IP.UpdateChecksum()
	return p
}

// A template is templateLen bytes; a payload's window starts in its first
// half (at one of 1<<templateOffsetBits offsets), so payloads up to 2 KB —
// every frame of a standard MTU — are one copy.
const (
	templateOffsetBits = 11
	templateLen        = 2 << templateOffsetBits
)

// template is the pseudo-random stream every payload is cut from, shared
// and only ever read.
var template = fillPayload(0)

// fillPayload returns a template: templateLen bytes of the splitmix64
// stream started at seed.
func fillPayload(seed uint64) []byte {
	out := make([]byte, templateLen)
	for i := 0; i < len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], splitmix64(&seed))
	}
	return out
}

// payload fills out with the payload of packet (ft, id): a template window
// — wrapping for payloads longer than one — under an 8-byte stamp of the
// per-packet seed. Payloads shorter than the stamp keep its low bytes,
// which hold the id.
//
//pp:zeroalloc
func (b *Builder) payload(out []byte, ft FiveTuple, id uint16) {
	seed := uint64(ft.SrcPort)<<48 ^ uint64(ft.SrcIP.Uint32())<<16 ^ uint64(id)
	off := int(seed * 0x9e3779b97f4a7c15 >> (64 - templateOffsetBits))
	for filled := copy(out, template[off:]); filled < len(out); {
		filled += copy(out[filled:], template)
	}
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], seed)
	copy(out, stamp[:])
}

// splitmix64 advances the stream and returns the next word.
func splitmix64(seed *uint64) uint64 {
	*seed += 0x9e3779b97f4a7c15
	z := *seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
