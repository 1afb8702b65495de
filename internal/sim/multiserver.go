package sim

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
// is one switch and one edge per server on the shared skeleton; each
// edge's per-port drop hooks charge a tenant's failures to its own
// counters and packet pool.
func RunMultiServer(m MultiServer, s Sections, w Wiring) (MultiServerResult, error) {
	m.Resolve(&s)
	if err := m.Validate(s); err != nil {
		return MultiServerResult{}, err
	}
	g := m.Graph(s)
	r, err := realise(g, s, w, runSpec{
		wires:   wires{linkBps: m.LinkBps},
		stagger: 97, // desynchronize servers slightly
	})
	if err != nil {
		return MultiServerResult{}, err
	}

	out := MultiServerResult{PerServer: make([]Result, m.Servers)}
	for i, e := range r.edges {
		out.PerServer[i] = e.measure()
		out.PerServer[i].Name = g.Flows[i].Name
	}
	pipes := (m.Servers + 1) / 2
	for p := 0; p < pipes; p++ {
		u := r.nodes[0].SW.Pipe(p).Resources()
		out.SRAMAvgPct += u.SRAMAvgPct
		if u.SRAMPeakPct > out.SRAMPeakPct {
			out.SRAMPeakPct = u.SRAMPeakPct
		}
	}
	out.SRAMAvgPct /= float64(pipes)
	return out, nil
}
