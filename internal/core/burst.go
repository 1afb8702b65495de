package core

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// burstSlot is one frame's scratch state inside a FrameBurst: a reusable
// parsed packet (header structs and payload buffer included) whose payload
// is parsed with room in front, so a merge reassembles in place. One slot
// per burst index lets a whole burst be parsed before any packet is
// injected.
type burstSlot struct {
	pkt packet.Packet
	udp packet.UDP
	tcp packet.TCP
	pp  packet.PPHeader
}

// FrameBurst is the raw-frame entry point: a fixed-capacity set of parse
// slots feeding InjectBatch (a one-slot burst is the per-frame case). A
// socket worker fills it with one receive burst (Add per frame), runs the
// whole burst through the switch (Run), and serializes the surviving
// emissions — one parse/inject/emit cycle per burst instead of per frame,
// with nothing allocated in steady state.
//
// A FrameBurst is owned by one goroutine. Several bursts may run on one
// Switch concurrently only under the one-worker-per-pipe rule (see
// Switch): every frame Added to a burst enters on ports of the pipes its
// goroutine owns, and no other goroutine injects into those pipes or
// their recirculation partners. Emissions returned by Run alias the
// burst's slot scratch and stay valid until the next Reset/Add cycle.
type FrameBurst struct {
	sw    *Switch
	slots []burstSlot
	// batch[i] carries slot i's packet from NewFrameBurst on: Add writes
	// only its port, and the first n entries are the frames added.
	batch   []BatchPacket
	results []BatchResult
	n       int
}

// NewFrameBurst returns a burst of the given capacity (DefaultBurst-sized
// callers typically match their receive burst).
func (s *Switch) NewFrameBurst(capacity int) *FrameBurst {
	if capacity < 1 {
		capacity = 1
	}
	b := &FrameBurst{sw: s, slots: make([]burstSlot, capacity), batch: make([]BatchPacket, capacity), results: make([]BatchResult, capacity)}
	for i := range b.batch {
		b.batch[i].Pkt = &b.slots[i].pkt
	}
	return b
}

// Reset empties the burst for the next receive cycle.
//
//pp:zeroalloc
func (b *FrameBurst) Reset() { b.n = 0 }

// Add parses frame into the next slot, entering on port in. Parse
// failures and invalid ports are counted against the switch (rx + drop
// reason) and reported back; the burst itself stays usable. Adding past
// capacity is an error.
//
//pp:zeroalloc
func (b *FrameBurst) Add(frame []byte, in rmt.PortID) error {
	if b.n >= len(b.slots) {
		return fmt.Errorf("core: frame burst full (%d slots)", len(b.slots)) //pp:alloc-ok error path only; a full burst is a caller bug, off the steady state
	}
	pipeIdx := PipeOfPort(in)
	if pipeIdx < 0 || pipeIdx >= NumPipes {
		b.sw.rx[invalidShard].Inc()
		b.sw.drop(invalidShard, dropInvalidPort)
		return fmt.Errorf("core: invalid port %d", in) //pp:alloc-ok error path only; invalid ports never reach the steady state
	}
	sc := &b.slots[b.n]
	sc.pkt.UDP = &sc.udp
	sc.pkt.TCP = &sc.tcp
	sc.pkt.PP = &sc.pp
	if err := sc.pkt.ParseWithHeadroom(frame, b.sw.ppOffset[in], b.sw.maxPark); err != nil {
		b.sw.rx[pipeIdx].Inc()
		b.sw.drop(pipeIdx, dropParseError)
		return err
	}
	b.batch[b.n].In = in
	b.n++
	return nil
}

// Run injects every added frame through the switch via InjectBatch and
// returns the per-frame results, index-aligned with the Add order. Result
// emissions (packets included) alias slot scratch: serialize or copy what
// must survive before the next Reset/Add.
//
//pp:zeroalloc
func (b *FrameBurst) Run() []BatchResult {
	results := b.results[:b.n]
	b.sw.InjectBatch(b.batch[:b.n], results)
	return results
}
