package core

import (
	"encoding/binary"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// fwdTable is the switch's forwarding table: destination MAC -> L2 port
// and/or ECMP hash group. The deparser consults it once per packet, so it
// is an open-addressed array (power-of-two length, linear probing, at most
// half full) keyed by the MAC as an integer — no byte-array hashing. The
// control plane (AddL2Route, SetECMPRoute) writes it in place; like the
// drop counters it must not be written while a parallel batch is in flight.
type fwdTable struct {
	cells []fwdEntry
	used  int
}

// fwdEntry is one destination's routes; a group takes precedence over the
// L2 port.
type fwdEntry struct {
	key   uint64 // macKey of the destination; 0 marks an empty cell
	port  rmt.PortID
	hasL2 bool
	group *ecmpGroup
}

// macKey packs a MAC into a nonzero integer.
func macKey(m *packet.MAC) uint64 {
	return 1 + (uint64(binary.BigEndian.Uint16(m[:2]))<<32 | uint64(binary.BigEndian.Uint32(m[2:])))
}

// find returns the cell holding key, or the empty cell that ends its
// probe path (no routes). Probing starts at a Fibonacci hash: a fabric's
// MACs differ in their low bits only.
//
//pp:zeroalloc
func (t *fwdTable) find(key uint64) *fwdEntry {
	mask := len(t.cells) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> 32); ; i++ {
		if e := &t.cells[i&mask]; e.key == key || e.key == 0 {
			return e
		}
	}
}

// entry returns mac's entry for writing, claiming an empty cell — and
// doubling a table that would pass half full — if it has none.
func (t *fwdTable) entry(mac packet.MAC) *fwdEntry {
	key := macKey(&mac)
	e := t.find(key)
	if e.key == key {
		return e
	}
	if t.used++; 2*t.used > len(t.cells) {
		old := t.cells
		t.cells = make([]fwdEntry, 2*len(old))
		for _, o := range old {
			if o.key != 0 {
				*t.find(o.key) = o
			}
		}
		e = t.find(key)
	}
	e.key = key
	return e
}

// resolve picks pkt's egress port: through its destination's hash group
// if one is installed, else the L2 route.
//
//pp:zeroalloc
func (t *fwdTable) resolve(pkt *packet.Packet) (rmt.PortID, bool) {
	e := t.find(macKey(&pkt.Eth.Dst))
	if g := e.group; g != nil {
		return g.ports[g.tbl.Lookup(FlowHash(pkt.FiveTuple()))], true
	}
	return e.port, e.hasL2
}
