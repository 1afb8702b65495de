package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// MultiServerResult reports per-server and aggregate outcomes.
type MultiServerResult struct {
	PerServer []Result `json:"per_server"`
	// Switch resource utilization with all programs installed (Table 1's
	// SRAM rows): average and peak per-stage SRAM over used pipes.
	SRAMAvgPct  float64 `json:"sram_avg_pct"`
	SRAMPeakPct float64 `json:"sram_peak_pct"`
}

// RunMultiServer simulates all servers against one shared switch in a
// single discrete-event run, after resolving and validating the sections
// (an error, never a panic, for a description the switch cannot hold). It
// is one switch and one edge per server; each edge's per-port drop hooks
// charge a tenant's failures to its own counters and packet pool.
func RunMultiServer(m MultiServer, s Sections, w Wiring) (MultiServerResult, error) {
	m.Resolve(&s)
	if err := m.Validate(s); err != nil {
		return MultiServerResult{}, err
	}
	f := NewFabric()
	f.Engine().Cancel = w.Cancel
	swn := f.AddSwitch("multiserver")

	edges := make([]*edge, m.Servers)
	for i := range edges {
		var err error
		if edges[i], err = wireServer(f, swn, m, s, i); err != nil {
			return MultiServerResult{}, err
		}
	}
	f.EnableObs(w.Obs)
	_, windowEnd := s.Opts.window()
	f.Run(windowEnd + s.Opts.WarmupNs)

	out := MultiServerResult{PerServer: make([]Result, m.Servers)}
	for i, e := range edges {
		out.PerServer[i] = e.measure()
		out.PerServer[i].Name = fmt.Sprintf("server-%d", i+1)
	}
	pipes := (m.Servers + 1) / 2
	for p := 0; p < pipes; p++ {
		u := swn.SW.Pipe(p).Resources()
		out.SRAMAvgPct += u.SRAMAvgPct
		if u.SRAMPeakPct > out.SRAMPeakPct {
			out.SRAMPeakPct = u.SRAMPeakPct
		}
	}
	out.SRAMAvgPct /= float64(pipes)
	return out, nil
}

// wireServer attaches one generator/server pair to the shared switch
// node. Server i lives on pipe i/2; the second server of a pipe uses the
// upper port block.
func wireServer(f *Fabric, swn *SwitchNode, m MultiServer, s Sections, i int) (*edge, error) {
	pipe := i / 2
	base := rmt.PortID(core.PortsPerPipe*pipe + 8*(i%2))
	split, nfPort, sinkPort := base, base+1, base+2

	macGen := packet.MAC{0x02, 0x10, 0, 0, 0, byte(i)}
	macNF := packet.MAC{0x02, 0x20, 0, 0, 0, byte(i)}
	macSink := packet.MAC{0x02, 0x30, 0, 0, 0, byte(i)}
	swn.SW.AddL2Route(macNF, nfPort)
	swn.SW.AddL2Route(macSink, sinkPort)
	swn.SW.AddL2Route(macGen, sinkPort) // MAC swap returns toward the generator

	var prog *core.Program
	if s.Parking.Enabled() {
		var err error
		if prog, err = swn.SW.AttachPayloadPark(s.Parking.Core(split, nfPort), -1); err != nil {
			return nil, fmt.Errorf("attach server %d: %w", i+1, err)
		}
	}

	gen := s.generator(macGen, macNF, packet.IPv4Addr{10, 1, byte(i), 9}, s.Opts.Seed+int64(i))
	name := func(hop string) string { return fmt.Sprintf("%s[%d]", hop, i+1) }
	side := edgeSide{node: swn, recycle: gen.Recycle}
	return newEdge(f, edgeSpec{
		src: side, nf: side,
		genPort: split, sinkPort: sinkPort, nfPort: nfPort,
		genName: name("gen"), sinkName: name("sink"), genCable: name("gen->switch"), sinkCable: name("switch->sink"),
		returnCable: name("nf->switch"), toNFCable: name("switch->nf"),
		linkBps: m.LinkBps, propNs: simPropNs, queueBytes: simQueueBytes,
		source:    gen,
		startAt:   int64(i) * 97, // desynchronize servers slightly
		serverCfg: nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})}, serverSeed: s.Opts.Seed + (int64(i)+1)<<40,
		sec: s, prog: prog,
	}), nil
}
