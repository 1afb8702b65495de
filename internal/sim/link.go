package sim

import (
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Parcel is a packet in flight through the simulation, carrying the
// bookkeeping the dataplane must not see. Every hop copies it into and out
// of an event slot, so it is four words:
// what only one station reads is parked there and claimed by index.
type Parcel struct {
	Pkt *packet.Packet
	// Born is the generator timestamp, for end-to-end latency.
	Born int64
	// InWindow marks parcels born inside the measurement window.
	InWindow bool

	// egress is the switch output port while the parcel waits out the
	// switch traversal latency.
	egress rmt.PortID
	// Inside a ServerSim: the RSS-selected core, the pipelined station
	// index, and the claim on the NF verdict parked in its job table.
	core  int32
	stage int32
	job   int32
}

// WireBytes returns the bytes a packet occupies on a physical link,
// including preamble/IFG/FCS overhead.
func WireBytes(p *packet.Packet) int {
	return p.Len() + trafficgen.WireOverheadBytes
}

// DropLinkDown is the drop reason reported for packets sent into a
// failed link (fabric link-failure scenarios).
const DropLinkDown = "link down"

// Link models a point-to-point link with an egress queue of finite byte
// capacity (the transmit buffer of the upstream device), a serialization
// rate, and a propagation delay. Packets overflowing the queue are
// dropped and reported to onDrop.
type Link struct {
	eng *Engine
	// Name labels the link in per-hop fabric reports and metrics ("" for
	// a link built outside a Fabric).
	Name string
	// Bps is the line rate in bits/second.
	Bps float64
	// PropNs is the propagation delay.
	PropNs int64
	// CapBytes is the queue capacity in bytes.
	CapBytes int
	// LossRate drops a uniform fraction of transmitted packets in flight
	// (corrupted frames, flapping optics) — the §7 "lossy links" failure
	// scenario. Zero for a clean link.
	LossRate float64
	// Down marks a failed link: everything sent into it drops (fiber cut).
	// Packets already serialized or propagating still arrive — failing a
	// link mid-run only stops new transmissions, like pulling the cable on
	// the sender side.
	Down bool

	deliver func(Parcel)
	onDrop  func(Parcel, string)
	// txDoneFn is the pre-bound transmit-complete handler, created once so
	// Send schedules without allocating a closure per packet.
	txDoneFn func(Parcel)

	queuedBytes int
	busyUntil   int64
	lossSeq     uint64

	// Tx counts packets serialized onto the link; TxBits counts the wire
	// bits (including Ethernet overhead); Drops counts queue overflows;
	// Lost counts in-flight losses.
	Tx     stats.Counter
	TxBits stats.Counter
	Drops  stats.Counter
	Lost   stats.Counter
}

// NewLink builds a link delivering to the given handler.
func NewLink(eng *Engine, bps float64, propNs int64, capBytes int, deliver func(Parcel), onDrop func(Parcel, string)) *Link {
	l := &Link{eng: eng, Bps: bps, PropNs: propNs, CapBytes: capBytes, deliver: deliver, onDrop: onDrop}
	l.txDoneFn = l.txDone
	return l
}

// QueuedBytes returns the bytes currently waiting (for tests).
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// Send enqueues a packet for transmission, dropping it if the queue is full.
//
//pp:zeroalloc
func (l *Link) Send(p Parcel) {
	if l.Down {
		l.Drops.Inc()
		if l.onDrop != nil {
			l.onDrop(p, DropLinkDown)
		}
		return
	}
	wire := WireBytes(p.Pkt)
	if l.queuedBytes+wire > l.CapBytes {
		l.Drops.Inc()
		if l.onDrop != nil {
			l.onDrop(p, "link queue overflow")
		}
		return
	}
	l.queuedBytes += wire
	start := l.busyUntil
	if now := l.eng.Now(); start < now {
		start = now
	}
	txNs := int64(float64(wire*8) / l.Bps * 1e9)
	done := start + txNs
	l.busyUntil = done
	l.eng.ScheduleParcelAt(done, l.txDoneFn, p)
}

// txDone completes a serialization: the wire bytes leave the queue and the
// packet propagates (or is lost in flight). The packet is not mutated
// between Send and delivery, so its wire size is recomputed rather than
// carried through the event.
//
//pp:zeroalloc
func (l *Link) txDone(p Parcel) {
	wire := WireBytes(p.Pkt)
	l.queuedBytes -= wire
	l.Tx.Inc()
	l.TxBits.Add(uint64(wire * 8))
	if l.LossRate > 0 && l.lose() {
		l.Lost.Inc()
		if l.onDrop != nil {
			l.onDrop(p, "link loss")
		}
		return
	}
	l.eng.ScheduleParcel(l.PropNs, l.deliver, p)
}

// lose implements deterministic pseudo-random loss via a splitmix64
// stream, so lossy-link runs stay reproducible.
func (l *Link) lose() bool {
	l.lossSeq += 0x9e3779b97f4a7c15
	z := l.lossSeq
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53) < l.LossRate
}

// Utilization returns the fraction of the elapsed time the link spent
// transmitting, based on wire bits sent.
func (l *Link) Utilization(elapsedNs int64) float64 {
	if elapsedNs <= 0 {
		return 0
	}
	return float64(l.TxBits.Value()) / (l.Bps * float64(elapsedNs) / 1e9)
}
