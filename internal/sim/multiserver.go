package sim

import (
	"github.com/payloadpark/payloadpark/internal/trafficgen"
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

	g := m.graph(s)
	if err := g.Realise(0, swn.SW); err != nil {
		return MultiServerResult{}, err
	}

	edges := make([]*edge, m.Servers)
	for i := range edges {
		gen := trafficgen.New(g.Flows[i].Traffic)
		side := edgeSide{node: swn, recycle: gen.Recycle}
		spec := edgeSpec{
			flow: &g.Flows[i], src: side, nf: side,
			linkBps: m.LinkBps, propNs: simPropNs, queueBytes: simQueueBytes,
			source:     gen,
			startAt:    int64(i) * 97, // desynchronize servers slightly
			serverSeed: s.Opts.Seed + (int64(i)+1)<<40,
			sec:        s,
		}
		if s.Parking.Enabled() {
			spec.prog = swn.SW.Programs()[i]
		}
		edges[i] = newEdge(f, spec)
	}
	f.EnableObs(w.Obs)
	_, windowEnd := s.Opts.window()
	f.Run(windowEnd + s.Opts.WarmupNs)

	out := MultiServerResult{PerServer: make([]Result, m.Servers)}
	for i, e := range edges {
		out.PerServer[i] = e.measure()
		out.PerServer[i].Name = g.Flows[i].Name
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
