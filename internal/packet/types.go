// Package packet implements the byte-accurate packet model used by the
// PayloadPark reproduction: Ethernet, IPv4, UDP and TCP headers, the
// PayloadPark header from Fig. 2 of the paper, parsing, serialization and
// checksum maintenance.
//
// The design follows the layer model popularized by gopacket: each header
// is a struct with an explicit wire encoding. Unlike gopacket, the set of
// protocols is closed (exactly what the paper's testbed carries), which
// lets parsing be allocation-free on the hot path.
//
// A Packet owns one payload buffer. Building, parsing and cloning write
// the payload into it, and it is made — at the payload's size rounded up
// to BufferClass bytes — only when the one the packet holds is too small.
// A split's cut stays in it, so what lies in front of the payload
// (Headroom) is where a merge reassembles in place.
package packet

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in canonical colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 32-bit IPv4 address in network byte order.
type IPv4Addr [4]byte

// String formats the address in dotted-quad notation.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer.
func (a IPv4Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes understood by the parser.
const (
	EtherTypeIPv4 EtherType = 0x0800
)

// IPProtocol identifies the transport protocol of an IPv4 packet.
type IPProtocol uint8

// IP protocol numbers understood by the parser.
const (
	IPProtoTCP IPProtocol = 6
	IPProtoUDP IPProtocol = 17
)

// Header sizes in bytes. IPv4 is the no-options header used throughout the
// paper's evaluation; 42 bytes of Ethernet+IPv4+UDP is the paper's unit of
// useful information (goodput).
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20

	// HeaderUnitLen is the Ethernet+IPv4+UDP header length the paper uses
	// as the unit of useful information when computing goodput (§1, §6.1).
	HeaderUnitLen = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen
)

// FiveTuple is the flow key examined by shallow NFs.
type FiveTuple struct {
	SrcIP    IPv4Addr
	DstIP    IPv4Addr
	SrcPort  uint16
	DstPort  uint16
	Protocol IPProtocol
}

// String renders the tuple as "proto src:port->dst:port".
func (f FiveTuple) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", f.Protocol, f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
}
