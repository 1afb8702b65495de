package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/ctrl"
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

// View is the testbed's report of a run of its graph: the one flow's
// measurement under the run's name, pipe 0's SRAM when a program is
// installed, the table program's counters and the controller's report.
func (Testbed) View(s Sections, o *Outcome) Result {
	res := o.Flows[0]
	res.Name = s.Name
	if s.Parking.Enabled() || s.Program.Enabled() {
		res.SRAMPct = o.Pipes[0][0].SRAMAvgPct
	}
	res.Programs = o.Programs
	res.Control = o.Control
	return res
}
