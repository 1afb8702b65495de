package core

import (
	"bytes"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// BenchmarkFrameBurstRoundTrip is the loop of the benchmark's dataplane_64
// and dataplane_mix workloads without the benchmark harness: bursts of 32
// frames in on the split port, each emission serialized, its destination MAC
// flipped as the NF would, back in on the merge port and serialized again.
// One op is one frame's round trip, so ns/op is the per-pass cost of two
// parse → FillPHV → Process → deparse → serialize passes.
func BenchmarkFrameBurstRoundTrip(b *testing.B) {
	const frames, burst = 8192, 32
	gen, nf, sink := packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}, packet.MAC{2, 0, 0, 0, 0, 3}
	for _, bc := range []struct {
		name  string
		sizes trafficgen.SizeDist
	}{{"64B", trafficgen.Fixed(64)}, {"datacenter", trafficgen.Datacenter{}}} {
		b.Run(bc.name, func(b *testing.B) {
			sw := NewSwitch("roundtrip")
			sw.AddL2Route(nf, 1)
			sw.AddL2Route(sink, 2)
			if _, err := sw.AttachPayloadPark(Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err != nil {
				b.Fatal(err)
			}
			tg := trafficgen.New(trafficgen.Config{Sizes: bc.sizes, Flows: 1024, SrcMAC: gen, DstMAC: nf,
				DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80, Seed: 3})
			in := make([][]byte, frames)
			for i := range in {
				p := tg.Next()
				in[i] = p.Serialize()
				tg.Recycle(p)
			}
			fb := sw.NewFrameBurst(burst)
			var mid [burst][]byte
			var out []byte
			next := 0
			round := func() {
				batch := in[next : next+burst]
				next = (next + burst) % frames
				fb.Reset()
				for _, f := range batch {
					if err := fb.Add(f, 0); err != nil {
						b.Fatal(err)
					}
				}
				for i, r := range fb.Run() {
					if !r.OK || r.Em.Port != 1 {
						b.Fatalf("split half: frame %d: ok=%t port %d %q", i, r.OK, r.Em.Port, r.Reason)
					}
					mid[i] = r.Em.Pkt.AppendSerialize(mid[i][:0])
					copy(mid[i], sink[:])
				}
				fb.Reset()
				for i := range batch {
					if err := fb.Add(mid[i], 1); err != nil {
						b.Fatal(err)
					}
				}
				for i, r := range fb.Run() {
					if !r.OK || r.Em.Port != 2 {
						b.Fatalf("merge half: frame %d: ok=%t port %d %q", i, r.OK, r.Em.Port, r.Reason)
					}
					out = r.Em.Pkt.AppendSerialize(out[:0])
					if !bytes.Equal(out[6:], batch[i][6:]) {
						b.Fatalf("merge half: frame %d came back changed", i)
					}
				}
			}
			for i := 0; i < frames/burst; i++ { // one lap: first writes create the table's register chunks
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				round()
			}
		})
	}
}
