package sim

import (
	"bytes"
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// mergeRig realises a parked 2-leaf x 2-spine fabric (the smallest geometry
// whose paths can park) on the event engine, with flow 0's generator, NF
// and sink replaced by the test: send carries one generated packet
// leaf0 -> spine0 -> leaf1 -> MAC-swapping NF -> leaf1 -> spine0 -> leaf0
// -> sink and returns what the sink received, serialized, with what the
// generator sent.
type mergeRig struct {
	f      *Fabric
	nodes  []*SwitchNode
	tg     *trafficgen.Generator
	gen    *Link
	got    *packet.Packet
	in     []byte
	out    []byte
	merges func() uint64
}

func newMergeRig(t *testing.T, mode ParkMode) *mergeRig {
	t.Helper()
	sec := Sections{
		Parking: Parking{Mode: mode, Slots: 64, MaxExpiry: 1},
		Traffic: Traffic{Dist: trafficgen.Fixed(1000), Flows: 16},
	}
	g := LeafSpineGraph(2, 2, sec)
	r := &mergeRig{f: NewFabric(), tg: trafficgen.New(g.Flows[0].Traffic)}
	fail := func(p Parcel, why string) { t.Fatalf("%s: packet dropped: %s", mode, why) }
	consumed := func(Parcel) { t.Fatalf("%s: packet consumed", mode) }
	link := func(to func(Parcel)) *Link { return r.f.NewLink("", 100e9, 100, 1<<20, to, fail) }
	for i, gs := range g.Switches {
		n := r.f.AddSwitch(gs.Name)
		n.WireParse = gs.WireParse
		if _, err := g.Realise(i, n.SW); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
	}
	for _, c := range g.Cables {
		a, b := r.nodes[c.A.Switch], r.nodes[c.B.Switch]
		a.SetOut(c.A.Port, link(b.Ingress(c.B.Port, fail, consumed)))
		b.SetOut(c.B.Port, link(a.Ingress(c.A.Port, fail, consumed)))
	}
	fl := &g.Flows[0]
	src, nfNode := r.nodes[fl.Gen.At.Switch], r.nodes[fl.NF.At.Switch]
	back := link(nfNode.Ingress(fl.NF.At.Port, fail, consumed))
	nfNode.SetOut(fl.NF.At.Port, link(func(p Parcel) {
		p.Pkt.Eth.Src, p.Pkt.Eth.Dst = p.Pkt.Eth.Dst, p.Pkt.Eth.Src
		back.Send(p)
	}))
	src.SetOut(fl.Sink.At.Port, link(func(p Parcel) { r.got = p.Pkt }))
	r.gen = link(src.Ingress(fl.Gen.At.Port, fail, consumed))
	r.merges = func() (n uint64) {
		for _, node := range r.nodes {
			for _, p := range node.SW.Programs() {
				n += p.C.Merges.Value()
			}
		}
		return n
	}
	return r
}

// send runs one packet around and checks the sink got the generator's
// bytes back, MACs swapped by the NF.
func (r *mergeRig) send(t *testing.T) {
	p := r.tg.Next()
	r.in = p.AppendSerialize(r.in[:0])
	r.gen.Send(Parcel{Pkt: p})
	r.f.Run(r.f.eng.Now() + 1e6)
	if r.got == nil {
		t.Fatal("nothing reached the sink")
	}
	r.out = r.got.AppendSerialize(r.out[:0])
	if !bytes.Equal(r.out[:6], r.in[6:12]) || !bytes.Equal(r.out[6:12], r.in[:6]) || !bytes.Equal(r.out[12:], r.in[12:]) {
		t.Fatalf("the sink's %d B differ from the %d B the generator sent", len(r.out), len(r.in))
	}
	r.tg.Recycle(r.got)
	r.got = nil
}

// TestLeafSpineMergeInPlaceAlloc: once warm, a parked fabric's merges
// allocate nothing, whether one program merges at the ingress leaf after
// two transit hops (edge parking: the hole the split cut rides the packet
// through the spine and the NF leaf) or every hop merges what it parked
// (striping: each wire-parse hop leaves room in front of the payload).
func TestLeafSpineMergeInPlaceAlloc(t *testing.T) {
	for _, tc := range []struct {
		mode      ParkMode
		perPacket uint64 // merges per round trip
	}{{ParkEdge, 1}, {ParkEveryHop, 3}} {
		mode, perPacket := tc.mode, tc.perPacket
		t.Run(mode.String(), func(t *testing.T) {
			r := newMergeRig(t, mode)
			for i := 0; i < 32; i++ { // every pooled packet gets its buffers, every register its chunk
				r.send(t)
			}
			m0 := r.merges()
			if allocs := testing.AllocsPerRun(100, func() { r.send(t) }); allocs != 0 {
				t.Errorf("a round trip with %d merges allocates %.1f times", perPacket, allocs)
			}
			if got, want := r.merges()-m0, 101*perPacket; got != want {
				t.Errorf("%d merges in 101 round trips, want %d", got, want)
			}
		})
	}
}

// leafSpineBuild is the set-up of the benchmark's fabric_16x8 workload —
// 16 leaves x 8 spines at 100 GbE, edge parking over 8192 slots, 60 Gbps of
// the datacenter mix per source — run with a 1 µs warm-up and window, so
// that building the fabric (24 switches, 16 parking programs from one
// compile) and tearing it down is nearly all of it.
func leafSpineBuild(tb testing.TB) {
	l := LeafSpine{Leaves: 16, Spines: 8, LinkBps: 100e9}
	sec := Sections{
		Parking: Parking{Mode: ParkEdge, Slots: 8192, MaxExpiry: 1},
		Traffic: Traffic{SendBps: 60e9, Dist: trafficgen.Datacenter{}, Flows: 1024},
		Opts:    RunOptions{Seed: 3, WarmupNs: 1e3, MeasureNs: 1e3},
	}
	if _, err := runTopology(&l, &sec, Wiring{}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkLeafSpineBuild is leafSpineBuild. Its B/op and allocs/op are
// work counts, steady to a few allocations from run to run (not under
// -race, whose sync.Pool drops items at random).
func BenchmarkLeafSpineBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leafSpineBuild(b)
	}
}

// TestLeafSpineBuildCompilesOncePerGraphAlloc: realising a graph builds
// prog.PayloadParkSpec and runs prog.Compile once per program. The 16 edge
// parking programs of the 16x8 fabric sit at 8 distinct (split, merge)
// pairs — leaf i merges on uplink i mod 8 — and, like the 8 of an 8-server
// MultiServer, all hold the one spec the first Realise compiled, which no
// later Realise replaces; the fabric's 16 compress programs hold one spec
// too. leafSpineBuild stays within 7,300 allocations (6,977; 7,633 while
// each stage's MAT and register lists grew by append, ≈12,770 with a
// compile per port pair, 16,589 with one per switch).
func TestLeafSpineBuildCompilesOncePerGraphAlloc(t *testing.T) {
	for _, tc := range []struct {
		name              string
		topo              topology
		program           string
		programs, mergeAt int
	}{
		{"leafspine-16x8", &LeafSpine{Leaves: 16, Spines: 8, LinkBps: 100e9}, "compress", 16, 8},
		{"multiserver-8", &MultiServer{Servers: 8, LinkBps: 10e9}, "", 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sec := Sections{Parking: Parking{Mode: ParkEdge, Slots: 8192, MaxExpiry: 1}, Program: Program{Kind: tc.program}}
			tc.topo.Resolve(&sec)
			g := tc.topo.Graph(sec)
			parks, tables, merges := make(map[*prog.Spec]int), make(map[*prog.Spec]int), make(map[rmt.PortID]bool)
			var first *prog.Compiled
			for i := range g.Switches {
				sw := core.NewSwitch(g.Switches[i].Name)
				insts, err := g.Realise(i, sw)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = g.park
				}
				if g.park != first {
					t.Fatalf("switch %d recompiled the parking program", i)
				}
				for _, p := range sw.Programs() {
					parks[p.Instance().Spec()]++
					merges[p.Config().MergePort] = true
				}
				for _, inst := range insts {
					tables[inst.Spec()]++
				}
			}
			if len(parks) != 1 || first == nil || parks[first.Spec()] != tc.programs || len(merges) != tc.mergeAt {
				t.Errorf("parking programs by spec %v at %d merge ports, want %d of the one compiled spec at %d", parks, len(merges), tc.programs, tc.mergeAt)
			}
			if tc.program != "" && (len(tables) != 1 || tables[g.program.Spec()] != tc.programs) {
				t.Errorf("%s programs by spec %v, want %d of one spec", tc.program, tables, tc.programs)
			}
		})
	}
	if raceEnabled {
		return // the allocation pins run without -race
	}
	if allocs := testing.AllocsPerRun(3, func() { leafSpineBuild(t) }); allocs > 7300 {
		t.Errorf("fabric set-up allocates %.0f times, want at most 7,300", allocs)
	}
}
