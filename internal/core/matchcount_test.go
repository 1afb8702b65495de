package core

import (
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// TestMatchCountsPerPacket pins the match work of the parking program per
// packet and half: 64 B and datacenter-mix frames through AttachPayloadPark
// in bursts, split, then back in on the merge port. Steps are what the
// compiled programs evaluate; residual loads are the conditions the packed
// key cannot express. On the mix those are the split_enabled cell, read by
// four guards of a parked packet's split, and the tag CRC of its merge.
func TestMatchCountsPerPacket(t *testing.T) {
	const frames, burst = 4096, 64
	nf, sink := packet.MAC{2, 0, 0, 0, 0, 2}, packet.MAC{2, 0, 0, 0, 0, 3}
	for _, tc := range []struct {
		name  string
		sizes trafficgen.SizeDist
		want  [2][2]float64 // split, merge: steps, residual loads per packet
	}{
		{"64B", trafficgen.Fixed(64), [2][2]float64{{5, 0}, {5, 0}}},
		{"datacenter", trafficgen.Datacenter{}, [2][2]float64{{5.7, 2.8}, {4.3, 0.7}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewSwitch("counts")
			sw.AddL2Route(nf, 1)
			sw.AddL2Route(sink, 2)
			if _, err := sw.AttachPayloadPark(Config{Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err != nil {
				t.Fatal(err)
			}
			gen := trafficgen.New(trafficgen.Config{Sizes: tc.sizes, SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: nf,
				DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80, Seed: 1})
			fb := sw.NewFrameBurst(burst)
			var per [2][2]uint64
			send := func(half int, in [][]byte, port rmt.PortID) (out [][]byte) {
				s0, r0 := sw.MatchCounts()
				fb.Reset()
				for _, f := range in {
					if err := fb.Add(f, port); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range fb.Run() {
					if r.OK {
						frame := r.Em.Pkt.AppendSerialize(nil)
						copy(frame, sink[:])
						out = append(out, frame)
					}
				}
				s1, r1 := sw.MatchCounts()
				per[half][0] += s1 - s0
				per[half][1] += r1 - r0
				return out
			}
			for sent := 0; sent < frames; sent += burst {
				in := make([][]byte, burst)
				for i := range in {
					p := gen.Next()
					in[i] = p.Serialize()
					gen.Recycle(p)
				}
				if back := send(1, send(0, in, 0), 1); len(back) != burst {
					t.Fatalf("%d of %d frames came back", len(back), burst)
				}
			}
			for half, name := range []string{"split", "merge"} {
				steps, loads := float64(per[half][0])/frames, float64(per[half][1])/frames
				t.Logf("%s: %.3f steps, %.3f residual loads per packet", name, steps, loads)
				if w := tc.want[half]; int(steps*10+0.5) != int(w[0]*10+0.5) || int(loads*10+0.5) != int(w[1]*10+0.5) {
					t.Errorf("%s: %.3f steps and %.3f residual loads per packet, want %.1f and %.1f", name, steps, loads, w[0], w[1])
				}
			}
		})
	}
}
