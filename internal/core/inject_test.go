package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// Equivalence-test topology: one PayloadPark program per pipe, with
// per-pipe NF and sink MACs (the paper's Table 1 four-pipe deployment).

func eqMACs(pipe int) (gen, nf, sink packet.MAC) {
	return packet.MAC{0x02, 0x40, 0, 0, byte(pipe), 0x01},
		packet.MAC{0x02, 0x40, 0, 0, byte(pipe), 0x02},
		packet.MAC{0x02, 0x40, 0, 0, byte(pipe), 0x03}
}

func eqSwitch(t testing.TB, pipes int) *Switch {
	t.Helper()
	sw := NewSwitch("equiv")
	for pipe := 0; pipe < pipes; pipe++ {
		base := rmt.PortID(pipe * PortsPerPipe)
		_, nfMAC, sinkMAC := eqMACs(pipe)
		sw.AddL2Route(nfMAC, base+1)
		sw.AddL2Route(sinkMAC, base+2)
		if _, err := sw.AttachPayloadPark(Config{
			Slots: 512, MaxExpiry: 1, SplitPort: base, MergePort: base + 1,
		}, -1); err != nil {
			t.Fatalf("attach pipe %d: %v", pipe, err)
		}
	}
	return sw
}

// eqTraffic builds n packets per pipe, interleaved round-robin, with a
// size mix hitting the split, small-skip, and occupied paths.
func eqTraffic(pipes, n int) []BatchPacket {
	sizes := []int{882, 100, 1400, 201, 300, 882, 64, 1000}
	var out []BatchPacket
	for i := 0; i < n; i++ {
		for pipe := 0; pipe < pipes; pipe++ {
			genMAC, nfMAC, _ := eqMACs(pipe)
			b := packet.NewBuilder(genMAC, nfMAC)
			ft := packet.FiveTuple{
				SrcIP: packet.IPv4Addr{10, 0, byte(pipe), byte(i)}, DstIP: packet.IPv4Addr{10, 1, byte(pipe), 9},
				SrcPort: uint16(5000 + i), DstPort: 80, Protocol: packet.IPProtoUDP,
			}
			out = append(out, BatchPacket{
				Pkt: b.UDP(ft, sizes[i%len(sizes)], uint16(i)),
				In:  rmt.PortID(pipe * PortsPerPipe),
			})
		}
	}
	return out
}

// injectMode drives traffic through sw either as one InjectBatch call per
// phase ("batch") or as batches of one ("scalar") and returns per-packet
// serialized emissions ("" for drops, prefixed by the reason) for both the
// split phase and the merge phase of every packet.
func injectMode(t testing.TB, sw *Switch, mode string, traffic []BatchPacket) []string {
	t.Helper()
	inject := sw.InjectBatch
	if mode == "scalar" {
		inject = func(batch []BatchPacket, results []BatchResult) {
			for i := range batch {
				sw.InjectBatch(batch[i:i+1], results[i:i+1])
			}
		}
	}

	record := func(results []BatchResult, out []string) []string {
		for i := range results {
			if !results[i].OK {
				out = append(out, "drop:"+results[i].Reason)
			} else {
				out = append(out, fmt.Sprintf("port%d:%x", results[i].Em.Port, results[i].Em.Pkt.Serialize()))
			}
		}
		return out
	}

	results := make([]BatchResult, len(traffic))
	inject(traffic, results)
	log := record(results, nil)

	// Merge phase: split emissions turn around onto the merge port.
	var merges []BatchPacket
	for i := range traffic {
		r := &results[i]
		if !r.OK || r.Em.Pkt.PP == nil {
			continue
		}
		pipe := PipeOfPort(traffic[i].In)
		_, _, sinkMAC := eqMACs(pipe)
		r.Em.Pkt.Eth.Dst = sinkMAC
		merges = append(merges, BatchPacket{Pkt: r.Em.Pkt, In: traffic[i].In + 1})
	}
	mres := make([]BatchResult, len(merges))
	inject(merges, mres)
	return record(mres, log)
}

// countersOf snapshots every observable switch counter.
func countersOf(sw *Switch) string {
	s := fmt.Sprintf("rx=%d tx=%d drops=%v", sw.RxPackets(), sw.TxPackets(), sw.Drops())
	for i, p := range sw.Programs() {
		s += fmt.Sprintf(" prog%d{%s}", i, p.C.String())
	}
	return s
}

// TestInjectParityAcrossDrivers is the byte-level guard for "a batch of
// one is the scalar case": identical traffic through identical switches
// must produce identical emissions (byte for byte, including the merge
// phase) and identical counters whether a driver hands InjectBatch one
// packet at a time (the sim) or whole batches (FrameBurst).
func TestInjectParityAcrossDrivers(t *testing.T) {
	const pipes, n = 4, 64
	swA, swB := eqSwitch(t, pipes), eqSwitch(t, pipes)
	want := injectMode(t, swA, "scalar", eqTraffic(pipes, n))
	got := injectMode(t, swB, "batch", eqTraffic(pipes, n))
	if len(got) != len(want) {
		t.Fatalf("batch: %d records, scalar had %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if a, b := countersOf(swA), countersOf(swB); a != b {
		t.Errorf("counters differ:\n  batch %s\n scalar %s", b, a)
	}
}

// TestFrameBurstPerPipeRace is the one-worker-per-pipe safety guard: four
// goroutines, one FrameBurst each, drive the four pipes of one shared
// Switch through split+merge rounds (plus an unroutable and a truncated
// frame per round, so the drop shards are written too). Run with -race
// this catches any state shared across pipes; the merged counters must
// equal a sequential run of the same frames.
func TestFrameBurstPerPipeRace(t *testing.T) {
	const pipes, n, rounds = 4, 32, 8
	frames := make([][][]byte, pipes)
	for _, bp := range eqTraffic(pipes, n) {
		pipe := PipeOfPort(bp.In)
		frames[pipe] = append(frames[pipe], bp.Pkt.Serialize())
	}
	for pipe := range frames {
		lost := append([]byte(nil), frames[pipe][0]...)
		copy(lost[0:6], []byte{9, 9, 9, 9, 9, 9}) // no L2 route
		frames[pipe] = append(frames[pipe], lost, lost[:10])
	}
	drive := func(sw *Switch, pipe int) {
		base := rmt.PortID(pipe * PortsPerPipe)
		_, _, sinkMAC := eqMACs(pipe)
		fb := sw.NewFrameBurst(8)
		var back [][]byte
		run := func(in [][]byte, port rmt.PortID) {
			for len(in) > 0 {
				k := min(len(in), fb.Cap())
				fb.Reset()
				for _, f := range in[:k] {
					fb.Add(f, port) // a rejected frame is charged to the switch's drop counters
				}
				for _, r := range fb.Run() {
					if port == base && r.OK && r.Em.Pkt.PP != nil {
						r.Em.Pkt.Eth.Dst = sinkMAC // turn around as the NF would
						back = append(back, r.Em.Pkt.Serialize())
					}
				}
				in = in[k:]
			}
		}
		for r := 0; r < rounds; r++ {
			back = back[:0]
			run(frames[pipe], base)
			run(back, base+1)
		}
	}

	seq := eqSwitch(t, pipes)
	for pipe := 0; pipe < pipes; pipe++ {
		drive(seq, pipe)
	}
	par := eqSwitch(t, pipes)
	var wg sync.WaitGroup
	for pipe := 0; pipe < pipes; pipe++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(par, pipe)
		}()
	}
	wg.Wait()

	if seq.TxPackets() == 0 || seq.Drops()[DropUnknownMAC] == 0 || seq.Drops()[dropParseError] == 0 {
		t.Fatalf("sequential run missed a path: %s", countersOf(seq))
	}
	if got, want := countersOf(par), countersOf(seq); got != want {
		t.Errorf("per-pipe workers diverge from the sequential run:\n got %s\nwant %s", got, want)
	}
}

// TestInjectBatchZeroAllocSteadyState asserts the zero-allocation claim
// on the packet-API hot path: split + merge round trips over recycled
// packets allocate nothing once warm (pooled PHVs, inline PP headers,
// reassembly in the packet's own buffer, emissions filled in place).
func TestInjectBatchZeroAllocSteadyState(t *testing.T) {
	sw := eqSwitch(t, 1)
	traffic := eqTraffic(1, 8) // one pipe: in-order split+merge round trips
	results := make([]BatchResult, len(traffic))
	merges := make([]BatchPacket, 0, len(traffic))
	mres := make([]BatchResult, len(traffic))
	_, nfMAC, sinkMAC := eqMACs(0)

	roundTrip := func() {
		sw.InjectBatch(traffic, results)
		merges = merges[:0]
		for i := range traffic {
			if results[i].OK && results[i].Em.Pkt.PP != nil {
				results[i].Em.Pkt.Eth.Dst = sinkMAC
				merges = append(merges, BatchPacket{Pkt: results[i].Em.Pkt, In: traffic[i].In + 1})
			}
		}
		sw.InjectBatch(merges, mres[:len(merges)])
		for i := range merges {
			merges[i].Pkt.Eth.Dst = nfMAC
		}
	}
	roundTrip() // warm pools and scratch; the first splits create the register chunks
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("InjectBatch round trip allocates %.1f/op, want 0", allocs)
	}
}

// TestFrameBurstZeroAllocSteadyState asserts the zero-allocation claim
// on the frame-level hot path: parse → process → deparse →
// AppendSerialize with reused buffers, for both the split and the
// (headroom-reassembled) merge direction.
func TestFrameBurstZeroAllocSteadyState(t *testing.T) {
	sw := eqSwitch(t, 1)
	genMAC, nfMAC, sinkMAC := eqMACs(0)
	b := packet.NewBuilder(genMAC, nfMAC)
	ft := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	frame := b.UDP(ft, 882, 1).Serialize()
	fb := sw.NewFrameBurst(1)
	var splitOut, mergeOut []byte
	hop := func(in []byte, port rmt.PortID, out []byte) []byte {
		fb.Reset()
		if err := fb.Add(in, port); err != nil {
			t.Fatalf("port %d: %v", port, err)
		}
		r := &fb.Run()[0]
		if !r.OK {
			t.Fatalf("port %d: dropped: %s", port, r.Reason)
		}
		return r.Em.Pkt.AppendSerialize(out[:0])
	}

	roundTrip := func() {
		splitOut = hop(frame, 0, splitOut)
		copy(splitOut[0:6], sinkMAC[:]) // turn around toward the sink
		mergeOut = hop(splitOut, 1, mergeOut)
	}
	roundTrip() // warm the slots; the first split creates the register chunks
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("FrameBurst round trip allocates %.1f/op, want 0", allocs)
	}
	// The merged frame must be the original bytes with only L2 rewritten.
	want := append([]byte(nil), frame...)
	copy(want[0:6], sinkMAC[:])
	if !bytes.Equal(mergeOut, want) {
		t.Error("merge did not reproduce the original frame bytes")
	}
}

// TestFirstSplitRegisterBytesAlloc: the first split on a freshly attached
// parking program allocates at most 64 KB, at the 16x8 fabric's 8,192 slots
// and at the Fig. 7 testbed's 24,341 — the register chunks it writes (a
// payload row's and a metadata cell's) plus the packet path's first-use
// scratch, not whole tables (1,024-row chunks made it 224 KB and 352 KB).
func TestFirstSplitRegisterBytesAlloc(t *testing.T) {
	for _, slots := range []int{8192, 24341} {
		sw, prog := testbed(t, Config{Slots: slots, MaxExpiry: 1, SplitPort: portGen, MergePort: portNF}, -1)
		batch, res := []BatchPacket{{Pkt: mkPkt(1500, 1), In: portGen}}, make([]BatchResult, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sw.InjectBatch(batch, res)
		runtime.ReadMemStats(&after)
		if !res[0].OK || prog.C.Splits.Value() != 1 {
			t.Fatalf("%d slots: the first packet was not split (ok %t, reason %q)", slots, res[0].OK, res[0].Reason)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
			t.Errorf("%d slots: the first split allocates %d KB, want at most 64 KB", slots, grown>>10)
		}
	}
}
