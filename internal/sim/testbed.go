package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// HealthyDropRate is the paper's health criterion: "We consider the system
// to be healthy when the packet drop rate is below 0.1%" (§6.1).
const HealthyDropRate = 0.001

// CDFPoint is one quantile of a delivered-latency distribution: Q is the
// cumulative fraction, LatencyUs the latency at that quantile.
type CDFPoint struct {
	Q         float64 `json:"q"`
	LatencyUs float64 `json:"latency_us"`
}

// latencyCDFQuantiles are the quantiles reported in Result.LatencyCDF.
var latencyCDFQuantiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// Result is the outcome of one testbed run, in the units the paper plots.
type Result struct {
	Name string `json:"name"`
	// SendGbps is the measured offered load.
	SendGbps float64 `json:"send_gbps"`
	// GoodputGbps is the paper's goodput: useful-header bits (42 B per
	// packet) delivered to the NF server per second, measured at the
	// switch (§6.1).
	GoodputGbps float64 `json:"goodput_gbps"`
	// ToNFGbps / ToNFMpps describe the switch->NF link traffic.
	ToNFGbps float64 `json:"to_nf_gbps"`
	ToNFMpps float64 `json:"to_nf_mpps"`
	// Latency of packets delivered to the sink, microseconds.
	AvgLatencyUs float64 `json:"avg_latency_us"`
	P99LatencyUs float64 `json:"p99_latency_us"`
	MaxLatencyUs float64 `json:"max_latency_us"`
	JitterUs     float64 `json:"jitter_us"` // peak minus average (paper Fig. 7 caption)
	// LatencyCDF samples the delivered-latency histogram at fixed
	// quantiles (empty when nothing was delivered in-window).
	LatencyCDF []CDFPoint `json:"latency_cdf,omitempty"`
	// Delivered counts packets reaching the sink in-window.
	Delivered uint64 `json:"delivered"`
	// UnintendedDropRate is (queue+ring+eviction+stale) drops / sent.
	UnintendedDropRate float64 `json:"unintended_drop_rate"`
	// NFDrops counts intended drops (firewall verdicts) in-window.
	NFDrops uint64 `json:"nf_drops"`
	// PCIe bus traffic at the NF server.
	PCIeGbps    float64 `json:"pcie_gbps"`
	PCIeUtilPct float64 `json:"pcie_util_pct"`
	// PayloadPark counters (deltas over the measurement window).
	Splits        uint64 `json:"splits"`
	Merges        uint64 `json:"merges"`
	Evictions     uint64 `json:"evictions"`
	Premature     uint64 `json:"premature"`
	OccupiedSkips uint64 `json:"occupied_skips"`
	SmallSkips    uint64 `json:"small_skips"`
	ExplicitDrops uint64 `json:"explicit_drops"`
	// Healthy reports the paper's <0.1% unintended-drop criterion.
	Healthy bool `json:"healthy"`
	// Programs reports each attached declarative table program's
	// in-window counter deltas (empty unless Sections.Program ran).
	Programs []ProgramCounters `json:"programs,omitempty"`
	// SRAMPct is the average per-stage SRAM utilization of the ingress pipe.
	SRAMPct float64 `json:"sram_pct"`
	// PerCore is the NF server's per-core drop/occupancy record over the
	// whole run (RSS spread, ring-overflow attribution, peak RX backlog).
	PerCore []CoreStat `json:"per_core,omitempty"`
	// Control is the adaptive-eviction control plane's report — the
	// mode-switch decision timeline — when Sections.Control ran a
	// controller (nil otherwise).
	Control *ctrl.Report `json:"control,omitempty"`
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: send=%.2fGbps goodput=%.3fGbps lat=%.1fus drop=%.4f%% pcie=%.1f%% healthy=%t",
		r.Name, r.SendGbps, r.GoodputGbps, r.AvgLatencyUs, 100*r.UnintendedDropRate, r.PCIeUtilPct, r.Healthy)
}

// RunTestbed simulates one Fig. 5 deployment and reports measurements:
// it resolves the sections' defaults, validates them, and returns an
// error — never a panic — for a description the switch cannot hold. It is
// one switch and one edge on the shared skeleton, plus what only the
// testbed measures: the latency histogram, PCIe utilization and the table
// program.
func RunTestbed(t Testbed, s Sections, w Wiring) (Result, error) {
	t.Resolve(&s)
	if err := t.Validate(s); err != nil {
		return Result{}, err
	}
	windowStart, windowEnd := s.Opts.window()
	latencyHist := stats.NewHistogram(stats.ExponentialBounds(1, 1.122, 120)) // 1 µs .. ~1 s
	pcie := stats.NewRateMeter(windowStart)
	var inst *prog.Instance        // the section's table program, when the run has one
	var progSnap map[string]uint64 // its counters at window start

	spec := runSpec{wires: wires{t.LinkBps, t.NFLinkLossRate}, unshifted: true}
	if s.Traffic.Source != nil {
		spec.sources = []trafficgen.Source{s.Traffic.Source()}
	}
	spec.wired = func(r *simRun) {
		e, eng := r.edges[0], r.eng
		e.sink.Hist = latencyHist
		// PCIe utilization: sample the server's cumulative DMA byte counter
		// periodically inside the window.
		var pcieBase uint64
		var pcieSample func()
		pcieSample = func() {
			now := eng.Now()
			if now >= windowStart && now <= windowEnd {
				total := e.server.PCIeBytes.Value()
				delta := total - pcieBase
				pcieBase = total
				if now > windowStart {
					pcie.Record(now, float64(delta*8))
				}
			}
			if now < windowEnd {
				eng.Schedule(1e6, pcieSample) // 1 ms sampling, like PCM
			}
		}
		eng.ScheduleAt(windowStart, func() { pcieBase = e.server.PCIeBytes.Value(); pcieSample() })
		if inst = first(r.programs[0]); inst != nil {
			eng.ScheduleAt(windowStart, func() { progSnap = inst.Counters() })
		}
	}
	r, err := realise(t.Graph(s), s, w, spec)
	if err != nil {
		return Result{}, err
	}

	pcie.CloseAt(windowEnd)
	res := r.edges[0].measure()
	res.Name = s.Name
	res.PCIeGbps = pcie.Gbps()
	res.PCIeUtilPct = 100 * pcie.Gbps() * 1e9 / s.Server.PCIeBps
	res.P99LatencyUs = latencyHist.Quantile(0.99)
	if latencyHist.Count() > 0 {
		res.LatencyCDF = make([]CDFPoint, len(latencyCDFQuantiles))
		for i, q := range latencyCDFQuantiles {
			res.LatencyCDF[i] = CDFPoint{Q: q, LatencyUs: latencyHist.Quantile(q)}
		}
	}
	if sw := r.nodes[0].SW; len(sw.Programs()) > 0 || inst != nil {
		res.SRAMPct = sw.Pipe(0).Resources().SRAMAvgPct
	}
	if inst != nil {
		res.Programs = []ProgramCounters{programReport("", inst, progSnap)}
	}
	res.Control = r.control()
	return res, nil
}
