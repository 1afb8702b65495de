package main

import "math"

// The benchmark's metric tables. BENCHMARK.json at the root of the repo
// declares the same names, units and directions for the driver; the smoke
// test holds the two together.

const (
	higher = "higher"
	lower  = "lower"
)

// metricDef declares one metric: its unit, which direction is better, and
// for end-to-end metrics how far the median may worsen before -compare
// calls it a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the relative share of the old median; floor is an absolute
	// allowance for metrics whose median can be (near) zero. The regression
	// threshold is max(bound*|old|, floor).
	bound float64
	floor float64
	// driver marks the end-to-end metrics BENCHMARK.json declares. The
	// others can be exactly 0 (or exist on one workload only), which the
	// driver's relative bounds cannot express; they are printed as
	// per-layer metrics under "run." instead and gated by -compare.
	driver bool
}

var endToEnd = []metricDef{
	{name: "pkts_per_s", unit: "1/s", better: higher, bound: 0.25, driver: true},
	{name: "cpu_us_per_pkt", unit: "us", better: lower, bound: 0.25, driver: true},
	{name: "allocs_per_pkt", unit: "count", better: lower, bound: 0.02, floor: 0.02},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.15, driver: true},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, floor: 0.020, driver: true},
	{name: "failed_share", unit: "ratio", better: lower},
	{name: "paper_err_pp", unit: "pp", better: lower}, // testbed_fig7 only
}

// allowance is how far a value with the given median may move, or spread,
// before it is past the bound.
func (m metricDef) allowance(med float64) float64 {
	return math.Max(m.bound*math.Abs(med), m.floor)
}

// endToEndDef returns the declaration of an end-to-end metric.
func endToEndDef(name string) metricDef {
	for _, m := range endToEnd {
		if m.name == name {
			return m
		}
	}
	panic("bench: undeclared end-to-end metric " + name) // a typo in this package, nothing else
}

// profBuckets are the attribution buckets of the CPU profile: the
// program's packages by name, then the runtime's three, then the rest.
var profBuckets = []string{
	"sim", "rmt", "prog", "core", "packet", "trafficgen", "nf", "wire", "live",
	"obs", "stats", "scenario", "ctrl", "maglev", "gc", "sched", "syscall", "other",
}

// perLayer lists every per-layer metric, in reporting order.
var perLayer = func() []metricDef {
	ns := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: "ns", better: lower})
		}
		return out
	}
	var m []metricDef
	m = append(m, ns("packet.parse_ns", "packet.serialize_ns",
		"rmt.fillphv_ns", "rmt.process_split_ns", "rmt.process_merge_ns", "rmt.process_miss_ns")...)
	m = append(m, metricDef{name: "prog.load_us", unit: "us", better: lower})
	m = append(m, ns("core.inject_split_ns", "core.inject_merge_ns", "core.inject_l2_ns",
		"core.burst_add_ns", "core.burst_run_ns", "core.burst_emit_ns")...)
	m = append(m,
		metricDef{name: "core.allocs_per_pkt", unit: "count", better: lower},
		metricDef{name: "core.merge_ratio", unit: "ratio", better: higher},
		metricDef{name: "core.evictions_per_kpkt", unit: "count", better: lower})
	m = append(m, ns("trafficgen.next_ns.datacenter", "trafficgen.next_ns.fixed64", "trafficgen.next_ns.fixed1500")...)
	m = append(m, metricDef{name: "trafficgen.allocs_per_pkt", unit: "count", better: lower})
	m = append(m, ns("nf.chain_fwnatlb_ns", "nf.macswap_ns",
		"sim.engine_hot_ns", "sim.engine_far_ns", "sim.engine_parcel_ns", "sim.link_hop_ns", "sim.server_pkt_ns")...)
	m = append(m,
		metricDef{name: "sim.events_per_pkt", unit: "count", better: lower},
		metricDef{name: "sim.link_tx_per_pkt", unit: "count", better: lower},
		metricDef{name: "sim.switch_rx_per_pkt", unit: "count", better: lower},
		metricDef{name: "sim.barrier_rounds", unit: "count", better: lower},
		metricDef{name: "sim.barrier_cross_msgs_per_pkt", unit: "count", better: lower},
		metricDef{name: "sim.barrier_stall_share", unit: "ratio", better: lower},
		metricDef{name: "sim.host_ns_per_event", unit: "ns", better: lower})
	m = append(m, ns("wire.send_batched_ns", "wire.recv_burst_ns")...)
	m = append(m,
		metricDef{name: "live.rx_burst_mean", unit: "count", better: higher},
		metricDef{name: "live.tx_batch_mean", unit: "count", better: higher},
		metricDef{name: "live.evictions_per_kpkt", unit: "count", better: lower},
		metricDef{name: "live.cores_busy", unit: "ratio", better: lower},
		metricDef{name: "obs.metrics_overhead_pct", unit: "%", better: lower},
		metricDef{name: "bench.span_overhead_pct", unit: "%", better: lower},
		metricDef{name: "bench.profile_overhead_pct", unit: "%", better: lower})
	for _, b := range profBuckets {
		// A share is a cost; only coverage is a goal.
		m = append(m, metricDef{name: "prof." + b + ".share", unit: "ratio", better: lower})
	}
	m = append(m, metricDef{name: "prof.coverage", unit: "ratio", better: higher})
	for _, e := range endToEnd {
		if !e.driver {
			m = append(m, metricDef{name: "run." + e.name, unit: e.unit, better: e.better})
		}
	}
	return m
}()
