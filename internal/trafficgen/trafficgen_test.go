package trafficgen

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
)

func testConfig(sizes SizeDist) Config {
	return Config{
		Sizes:   sizes,
		Flows:   256,
		SrcMAC:  packet.MAC{2, 0, 0, 0, 0, 1},
		DstMAC:  packet.MAC{2, 0, 0, 0, 0, 2},
		DstIP:   packet.IPv4Addr{10, 1, 0, 9},
		DstPort: 80,
		Seed:    1,
	}
}

func TestFixedSizes(t *testing.T) {
	g := New(testConfig(Fixed(512)))
	for i := 0; i < 100; i++ {
		p := g.Next()
		if p.Len() != 512 {
			t.Fatalf("packet %d size = %d, want 512", i, p.Len())
		}
	}
}

// TestDatacenterMoments checks the reconstructed Fig. 6 distribution
// against the moments the paper states: mean ~882 B and 30% of packets
// with payloads under 160 B (wire size < 202 B).
func TestDatacenterMoments(t *testing.T) {
	g := New(testConfig(Datacenter{}))
	const n = 200000
	small := 0
	var sum float64
	for i := 0; i < n; i++ {
		p := g.Next()
		sz := p.Len()
		if sz < MinPacketSize || sz > MaxPacketSize {
			t.Fatalf("size %d out of range", sz)
		}
		if len(p.Payload) < 160 {
			small++
		}
		sum += float64(sz)
	}
	mean := sum / n
	if mean < 860 || mean > 905 {
		t.Errorf("mean = %.1f, want ~882 (paper §6.1)", mean)
	}
	frac := float64(small) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("sub-160B-payload fraction = %.3f, want ~0.30", frac)
	}
}

func TestDatacenterCDFIsBimodal(t *testing.T) {
	g := New(testConfig(Datacenter{}))
	cdf := stats.NewCDF()
	for i := 0; i < 50000; i++ {
		cdf.Observe(float64(g.Next().Len()))
	}
	// Mass below 202 B ~30%; little mass in the 500-1000 B valley; heavy
	// mass above 1300 B. That is the bimodal shape of Fig. 6.
	if p := cdf.At(201); p < 0.27 || p < 0.0 {
		t.Errorf("P(<=201) = %.3f", p)
	}
	valley := cdf.At(1000) - cdf.At(500)
	if valley > 0.02 {
		t.Errorf("valley mass (500,1000] = %.3f, want near 0", valley)
	}
	high := 1 - cdf.At(1300)
	if high < 0.5 {
		t.Errorf("mass above 1300 = %.3f, want > 0.5", high)
	}
}

// TestNextAllocFree: with every packet recycled, generation allocates
// nothing — the generator keeps no per-size statistics (Fig. 6 observes
// the sizes it draws) and payloads are copied from the builder's template
// into a recycled buffer of the draw's class.
func TestNextAllocFree(t *testing.T) {
	g := New(testConfig(Datacenter{}))
	for i := 0; i < 64; i++ { // warm the pool: 64 packets of differing capacity
		g.Recycle(g.Next())
	}
	for i := 0; i < 2000; i++ {
		g.Recycle(g.Next()) // file a buffer under every class the mix draws
	}
	if allocs := testing.AllocsPerRun(1000, func() { g.Recycle(g.Next()) }); allocs != 0 {
		t.Errorf("Next allocates %.2f/packet in steady state, want 0", allocs)
	}
}

// TestAppendFrameMatchesSerialize: AppendFrame's bytes are a fresh
// generator's Next().Serialize() sequence, frame for frame, and once the
// pool and the destination buffer are warm a frame costs no allocation.
func TestAppendFrameMatchesSerialize(t *testing.T) {
	for name, sizes := range map[string]SizeDist{"datacenter": Datacenter{}, "fixed64": Fixed(64), "fixed1500": Fixed(1500)} {
		t.Run(name, func(t *testing.T) {
			want, got := New(testConfig(sizes)), New(testConfig(sizes))
			var frame []byte
			for i := 0; i < 10000; i++ {
				frame = got.AppendFrame(frame[:0])
				if w := want.Next().Serialize(); !bytes.Equal(frame, w) {
					t.Fatalf("frame %d: AppendFrame gave %d bytes % x..., Serialize %d bytes % x...",
						i, len(frame), frame[:min(len(frame), 16)], len(w), w[:16])
				}
			}
			if allocs := testing.AllocsPerRun(1000, func() { frame = got.AppendFrame(frame[:0]) }); allocs != 0 {
				t.Errorf("AppendFrame allocates %.2f/frame in steady state, want 0", allocs)
			}
		})
	}
}

// TestNextFreshAllocs: with nothing recycled, a fresh packet's Packet and
// UDP structs come from the generator's slabs, so generation costs its
// payload plus one slab per doubling, not three allocations per packet.
func TestNextFreshAllocs(t *testing.T) {
	g := New(testConfig(Datacenter{}))
	if allocs := testing.AllocsPerRun(1024, func() { g.Next() }); allocs > 1.1 {
		t.Errorf("fresh Next allocates %.3f/packet, want <= 1.1 (payload plus slab share)", allocs)
	}
}

// TestSlabNeighboursShareNothing: packets carved from one slab — and
// across slab boundaries — never share a UDP struct or payload bytes, so
// rewriting one packet leaves its neighbours as generated.
func TestSlabNeighboursShareNothing(t *testing.T) {
	g := New(testConfig(Datacenter{}))
	const n = 3*maxSlab + 5
	pkts := make([]*packet.Packet, n)
	want := make([][]byte, n)
	udps := map[*packet.UDP]bool{}
	type span struct{ lo, hi uintptr }
	var spans []span
	for i := range pkts {
		p := g.Next()
		pkts[i] = p
		if udps[p.UDP] {
			t.Fatalf("packet %d reuses an earlier packet's UDP struct", i)
		}
		udps[p.UDP] = true
		if c := cap(p.Payload); c > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(p.Payload)))
			spans = append(spans, span{lo, lo + uintptr(c)})
		}
		want[i] = p.Serialize()
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two packets' payload buffers overlap: %#x..%#x and %#x..%#x", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	// Scribble over every odd packet: both neighbours of each must still
	// serialize as generated.
	for i := 1; i < n; i += 2 {
		p := pkts[i]
		p.UDP.SrcPort, p.UDP.DstPort = ^p.UDP.SrcPort, ^p.UDP.DstPort
		for k := range p.Payload {
			p.Payload[k] = ^p.Payload[k]
		}
	}
	for i := 0; i < n; i += 2 {
		if !bytes.Equal(pkts[i].Serialize(), want[i]) {
			t.Fatalf("rewriting packets %d and %d changed packet %d", i-1, i+1, i)
		}
	}
}

// TestRecycledPacketReused: Next hands back the most recently recycled
// packet — the same Packet and UDP struct — before it touches a slab, with
// the most recently recycled buffer of the draw's class (here the packet's
// own, as every draw is 900 B), and rebuilds it exactly as a fresh packet
// of the same draw.
func TestRecycledPacketReused(t *testing.T) {
	g, ref := New(testConfig(Fixed(900))), New(testConfig(Fixed(900)))
	p := g.Next()
	ref.Next()
	udp, buf := p.UDP, unsafe.SliceData(p.Payload)
	g.Recycle(p)
	q := g.Next()
	if q != p || q.UDP != udp || unsafe.SliceData(q.Payload) != buf {
		t.Errorf("recycled packet not reused: packet %t, UDP %t, payload %t", q == p, q.UDP == udp, unsafe.SliceData(q.Payload) == buf)
	}
	if len(g.slab) != minSlab-1 {
		t.Errorf("recycled Next took a slab entry: %d of %d left", len(g.slab), minSlab)
	}
	if !bytes.Equal(q.Serialize(), ref.Next().Serialize()) {
		t.Error("recycled packet differs from the fresh packet of the same draw")
	}
}

// wave is a size source that repeats one sequence of sizes.
type wave struct {
	sizes []int
	i     int
}

func (w *wave) Sample(*rand.Rand) int { w.i++; return w.sizes[(w.i-1)%len(w.sizes)] }
func (w *wave) Name() string          { return "wave" }

// TestNextRecyclesBySizeClassAlloc: 4,096 packets of the datacenter mix
// are in flight at once and retire in random order; the next wave draws
// the same sizes. Every draw finds a free buffer of its own class, so from
// the second wave on no buffer is made or outgrown — a pool that handed
// out whatever buffer came back last would re-make hundreds per wave.
func TestNextRecyclesBySizeClassAlloc(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(7))
	w := &wave{sizes: make([]int, n)}
	for i := range w.sizes {
		w.sizes[i] = Datacenter{}.Sample(rng)
	}
	g := New(testConfig(w))
	inFlight := make([]*packet.Packet, n)
	run := func() {
		for i := range inFlight {
			inFlight[i] = g.Next()
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			inFlight[i], inFlight[j] = inFlight[j], inFlight[i]
		}
		for _, p := range inFlight {
			g.Recycle(p)
		}
	}
	run()
	made := g.PayloadBuffers()
	if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
		t.Errorf("a wave after the first allocates %.0f times, want 0", allocs)
	}
	if later := g.PayloadBuffers() - made; later != 0 {
		t.Errorf("waves after the first made %d payload buffers (the first made %d), want 0", later, made)
	}
}

func TestFlowsVaryButRemainStable(t *testing.T) {
	g := New(testConfig(Fixed(300)))
	seen := make(map[packet.FiveTuple]bool)
	for i := 0; i < 2000; i++ {
		seen[g.Next().FiveTuple()] = true
	}
	if len(seen) < 200 || len(seen) > 256 {
		t.Errorf("distinct flows = %d, want ~256", len(seen))
	}
	for ft := range seen {
		if ft.SrcIP[0] != 10 {
			t.Fatalf("src IP %v outside 10.0.0.0/8", ft.SrcIP)
		}
		if ft.DstIP != (packet.IPv4Addr{10, 1, 0, 9}) || ft.DstPort != 80 {
			t.Fatalf("unexpected destination %v", ft)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1 := New(testConfig(Datacenter{}))
	g2 := New(testConfig(Datacenter{}))
	for i := 0; i < 500; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Len() != b.Len() || a.FiveTuple() != b.FiveTuple() {
			t.Fatal("same seed produced different streams")
		}
	}
	cfg := testConfig(Datacenter{})
	cfg.Seed = 2
	g3 := New(cfg)
	same := true
	for i := 0; i < 50; i++ {
		if g1.Next().Len() != g3.Next().Len() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestDefaultFlows(t *testing.T) {
	cfg := testConfig(Fixed(100))
	cfg.Flows = 0
	g := New(cfg)
	if len(g.flows) != 1024 {
		t.Errorf("default flows = %d, want 1024", len(g.flows))
	}
}

func TestTruncNormBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := truncNorm(rng, 90, 28, 42, 201)
		if v < 42 || v > 201 {
			t.Fatalf("truncNorm out of bounds: %d", v)
		}
	}
	// Degenerate: mean far outside the window still clamps in.
	for i := 0; i < 100; i++ {
		v := truncNorm(rng, 10000, 1, 42, 201)
		if v != 201 {
			t.Fatalf("clamp high = %d, want 201", v)
		}
	}
}

func BenchmarkNextDatacenter(b *testing.B) {
	g := New(testConfig(Datacenter{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
