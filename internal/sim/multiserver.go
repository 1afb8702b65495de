package sim

// MultiServerResult reports per-server and aggregate outcomes.
type MultiServerResult struct {
	PerServer []Result `json:"per_server"`
	// Switch resource utilization with all programs installed (Table 1's
	// SRAM rows): average and peak per-stage SRAM over used pipes.
	SRAMAvgPct  float64 `json:"sram_avg_pct"`
	SRAMPeakPct float64 `json:"sram_peak_pct"`
}

// View is the deployment's report of a run of its graph: every server's
// measurement, and the SRAM of the pipes hosting them (two per pipe).
func (m MultiServer) View(_ Sections, o *Outcome) MultiServerResult {
	out := MultiServerResult{PerServer: o.Flows}
	pipes := o.Pipes[0][:(m.Servers+1)/2]
	for _, u := range pipes {
		out.SRAMAvgPct += u.SRAMAvgPct
		out.SRAMPeakPct = max(out.SRAMPeakPct, u.SRAMPeakPct)
	}
	out.SRAMAvgPct /= float64(len(pipes))
	return out
}
