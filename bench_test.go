package payloadpark

// Dataplane micro-benchmarks and ablations. The paper's figures are the
// registered experiments (`go run ./cmd/ppbench -exp <id>`, pinned in
// quick mode by internal/harness's tests); measured performance is the
// bench/ ledger.

import (
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func benchInjectLoop(b *testing.B, cfg core.Config, size int, attach bool) {
	sw := core.NewSwitch("bench")
	sw.AddL2Route(sim.MACNF, 1)
	sw.AddL2Route(sim.MACSink, 2)
	if attach {
		if _, err := sw.AttachPayloadPark(cfg, map[bool]int{true: 1, false: -1}[cfg.Recirculate]); err != nil {
			b.Fatal(err)
		}
	}
	flow := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	builder := packet.NewBuilder(sim.MACGen, sim.MACNF)
	proto := builder.UDP(flow, size, 1)
	bp := make([]core.BatchPacket, 1)
	res := make([]core.BatchResult, 1)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp[0] = core.BatchPacket{Pkt: proto.Clone(), In: 0}
		sw.InjectBatch(bp, res)
		if out := res[0].Em.Pkt; out != nil && out.PP != nil && out.PP.Enabled {
			out.Eth.Dst = sim.MACSink
			bp[0] = core.BatchPacket{Pkt: out, In: 1}
			sw.InjectBatch(bp, res)
		}
	}
}

// ---- Zero-allocation hot-path benchmarks ----
//
// These assert the steady-state allocation contract of the pooled/batched
// dataplane: FillPHV into a pooled PHV, Pipeline.Process, FrameBurst, and
// InjectBatch run at 0 allocs/op once warm. CI runs them with
// -benchtime=1x as a does-it-still-run check; the measured ledger is
// bench/ (bash bench/run.sh).

// benchPipe builds a configured pipe + packet for the rmt-level benchmarks.
func benchPipe(b *testing.B) (*core.Switch, *packet.Packet) {
	sw := core.NewSwitch("bench")
	sw.AddL2Route(sim.MACNF, 1)
	sw.AddL2Route(sim.MACSink, 2)
	if _, err := sw.AttachPayloadPark(core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err != nil {
		b.Fatal(err)
	}
	flow := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	return sw, packet.NewBuilder(sim.MACGen, sim.MACNF).UDP(flow, 882, 1)
}

func BenchmarkFillPHV(b *testing.B) {
	sw, pkt := benchPipe(b)
	pipe := sw.Pipe(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phv := pipe.AcquirePHV()
		pipe.Parser().FillPHV(phv, pkt, 0)
		pipe.ReleasePHV(phv)
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	sw, pkt := benchPipe(b)
	pipe := sw.Pipe(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phv := pipe.AcquirePHV()
		pipe.Parser().FillPHV(phv, pkt, 3) // port 3: no program rules fire, pure MAT walk
		pipe.Process(phv)
		pipe.ReleasePHV(phv)
	}
}

func BenchmarkFrameBurst(b *testing.B) {
	// The frame path: split + merge round trip through a one-slot burst,
	// entirely in reused scratch (0 allocs/op in steady state).
	sw, pkt := benchPipe(b)
	frame := pkt.Serialize()
	fb := sw.NewFrameBurst(1)
	var splitOut, mergeOut []byte
	hop := func(in []byte, port rmt.PortID, out []byte) []byte {
		fb.Reset()
		if err := fb.Add(in, port); err != nil {
			b.Fatal(err)
		}
		r := &fb.Run()[0]
		if !r.OK {
			b.Fatal(r.Reason)
		}
		return r.Em.Pkt.AppendSerialize(out[:0])
	}
	round := func() {
		splitOut = hop(frame, 0, splitOut)
		copy(splitOut[0:6], sim.MACSink[:])
		mergeOut = hop(splitOut, 1, mergeOut)
	}
	for i := 0; i < 8192; i++ { // wrap the table once: first writes create its register chunks
		round()
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// benchBatch builds a one-pipe batch workload of split-eligible packets.
func benchBatch(b *testing.B, n int) (*core.Switch, []core.BatchPacket) {
	sw, _ := benchPipe(b)
	builder := packet.NewBuilder(sim.MACGen, sim.MACNF)
	batch := make([]core.BatchPacket, n)
	for i := range batch {
		flow := packet.FiveTuple{
			SrcIP: packet.IPv4Addr{10, 0, 1, byte(i)}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
			SrcPort: uint16(5000 + i), DstPort: 80, Protocol: packet.IPProtoUDP,
		}
		batch[i] = core.BatchPacket{Pkt: builder.UDP(flow, 882, uint16(i)), In: 0}
	}
	return sw, batch
}

func BenchmarkInjectBatch(b *testing.B) {
	// Split + merge round trips over recycled packets: 0 allocs/op once
	// warm (pooled PHVs, reassembly in the packet's buffer, in-place results).
	const n = 64
	sw, batch := benchBatch(b, n)
	results := make([]core.BatchResult, n)
	merges := make([]core.BatchPacket, 0, n)
	mres := make([]core.BatchResult, n)
	round := func() {
		sw.InjectBatch(batch, results)
		merges = merges[:0]
		for j := range batch {
			if results[j].OK && results[j].Em.Pkt.PP != nil {
				results[j].Em.Pkt.Eth.Dst = sim.MACSink
				merges = append(merges, core.BatchPacket{Pkt: results[j].Em.Pkt, In: 1})
			}
		}
		sw.InjectBatch(merges, mres[:len(merges)])
		for j := range merges {
			merges[j].Pkt.Eth.Dst = sim.MACNF
		}
	}
	// Wrap the 8192-slot table once: its register chunks are created by
	// their first write, a warm-up the measured rounds must not pay.
	for i := 0; i <= 8192/n; i++ {
		round()
	}
	b.ReportAllocs()
	b.SetBytes(int64(n * 882))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func BenchmarkDataplaneSplitMerge(b *testing.B) {
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, 882, true)
}

func BenchmarkDataplaneBaselineL2(b *testing.B) {
	benchInjectLoop(b, core.Config{}, 882, false)
}

func BenchmarkAblationRecirculation(b *testing.B) {
	// Per-packet cost of the second pipeline pass (384 B parked).
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true}, 882, true)
}

func BenchmarkAblationTableSize64k(b *testing.B) {
	// Table size must not affect per-packet cost (O(1) register indexing).
	benchInjectLoop(b, core.Config{Slots: 65536, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, 882, true)
}

func BenchmarkAblationExpiry10(b *testing.B) {
	// Conservative expiry: same per-packet cost, different policy.
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 10, SplitPort: 0, MergePort: 1}, 882, true)
}

func BenchmarkAblationSmallPacketPath(b *testing.B) {
	// Packets below the parking threshold take the ENB=0 path.
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, 128, true)
}

func BenchmarkAblationBoundaryOffset(b *testing.B) {
	// Per-packet cost with the §7 decoupling boundary at 64 B: the
	// visible-prefix copy adds to split/merge work.
	benchInjectLoop(b, core.Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1, BoundaryOffset: 64}, 882, true)
}
