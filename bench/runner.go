package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// params is what a workload is built from: the seed that makes its inputs,
// and the divisor -quick applies to every simulated window and frame count.
type params struct {
	seed   int64
	shrink int64
}

// repMode selects how a repetition runs: dark is the program as a user
// runs it; counted arms Observe.Metrics (scenario workloads) or the burst
// spans (dataplane workloads) and fills repStats.counts.
type repMode int

const (
	dark repMode = iota
	counted
)

// repStats is what one repetition hands back.
type repStats struct {
	packets uint64             // denominator of the per-packet metrics
	failed  uint64             // violations the workload found itself
	notes   []string           // what they were
	fields  map[string]float64 // statistics the output checks read
	counts  map[string]float64 // per-layer counts (counted mode)
}

// repFunc does one repetition's fixed work.
type repFunc func(mode repMode, spans *spanLog) (repStats, error)

// workload is one row of the table in adapter.go.
type workload struct {
	name string
	// exact says the workload's statistics repeat exactly from one
	// repetition to the next (everything but the socket-timed live run).
	exact bool
	// armed names the overhead metric the counted repetitions measure:
	// Observe.Metrics for scenario workloads, the burst spans for dataplane.
	armed string
	// setUp builds the workload's world and tears it down again: what
	// setup_s times.
	setUp func(p params) error
	// open prepares the world the timed repetitions run in.
	open func(p params) (repFunc, error)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is the host's view of one repetition.
type sample struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	st      repStats
}

// cpuTime is the process's user+system CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// measure runs one repetition between the host-side counters. With collect
// it first forces a collection, so every repetition starts from the same
// heap state; the profiled repetitions go without, so that the profile's gc
// share is the program's own.
func measure(rep repFunc, mode repMode, spans *spanLog, collect bool) (sample, error) {
	if collect {
		runtime.GC()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, t0 := cpuTime(), time.Now()
	st, err := rep(mode, spans)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&ms1)
	if err == nil && st.packets == 0 {
		err = fmt.Errorf("repetition moved no packets")
	}
	return sample{wall: wall, cpu: cpu, mallocs: ms1.Mallocs - ms0.Mallocs, st: st}, err
}

func (s sample) pktsPerS() float64    { return float64(s.st.packets) / s.wall.Seconds() }
func (s sample) cpuUsPerPkt() float64 { return float64(s.cpu.Microseconds()) / float64(s.st.packets) }
func (s sample) allocsPerPkt() float64 {
	return float64(s.mallocs) / float64(s.st.packets)
}

// metricValue is one reported number. Samples holds independent estimates
// of it from within the run (set-up runs, repetitions, or for a best-of
// metric each group's best) for -compare's quartiles; All holds every
// repetition of a best-of metric.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	All     []float64 `json:"all,omitempty"`
}

// bestGroups is how many interleaved groups a run's repetitions are dealt
// into to estimate how far the best repetition itself wanders.
const bestGroups = 4

// bestOf returns the best of xs and the best of each of bestGroups
// interleaved groups. Interference from the host's other tenants only ever
// slows a repetition down, in bursts shorter than a second, so the fastest
// of many short repetitions is the steady number: on the reference host
// ten-second medians of a register-only loop spread 9.4 %, their minima
// 2.3 % (README "Noise").
func bestOf(xs []float64, better string) (best float64, groups []float64) {
	pick := math.Min
	if better == higher {
		pick = math.Max
	}
	groups = make([]float64, 0, bestGroups)
	for i, x := range xs {
		if i < bestGroups {
			groups = append(groups, x)
		} else {
			groups[i%bestGroups] = pick(groups[i%bestGroups], x)
		}
	}
	best = groups[0]
	for _, g := range groups[1:] {
		best = pick(best, g)
	}
	return best, groups
}

// passResult is the outcome of one pass (dark or traced) over one
// workload: the driver's line plus what the all-workloads report keeps.
type passResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Fields    map[string]float64     `json:"fields,omitempty"`
	Probes    map[string]probeResult `json:"probes,omitempty"`
	// ProfileSamples is how many CPU-profile samples the attribution
	// shares were computed from (traced pass).
	ProfileSamples int `json:"profile_samples,omitempty"`
}

// runOpts are one pass's knobs.
type runOpts struct {
	seed    int64
	seconds int  // measure at least the minimum repetitions, then until this much time has passed
	quick   bool // 1/50 size, one repetition, no warm-up
	outDir  string
}

func (o runOpts) params() params {
	p := params{seed: o.seed, shrink: 1}
	if o.quick {
		p.shrink = quickShrink
	}
	return p
}

// A dark pass times at least minReps repetitions. Set-up is timed at least
// setUpRuns times and until setUpFor has passed (a millisecond set-up
// repeats about a hundred times), so that its median is steadier than any
// one run.
const (
	minReps      = 20
	setUpRuns    = 7
	setUpMaxRuns = 101
	setUpFor     = 250 * time.Millisecond
)

// absorb folds one repetition's checks into the pass.
func (r *passResult) absorb(w workload, o runOpts, s sample, first *sample) {
	r.Attempted += s.st.packets
	r.Failed += s.st.failed
	r.Notes = append(r.Notes, s.st.notes...)
	notes := checkRep(w.name, o, s.st, s.allocsPerPkt())
	if first != nil && w.exact {
		// Same seed, same inputs: every statistic repeats exactly.
		for k, v := range first.st.fields {
			if s.st.fields[k] != v {
				notes = append(notes, fmt.Sprintf("%s changed between repetitions: %v then %v", k, v, s.st.fields[k]))
			}
		}
	}
	r.Failed += uint64(len(notes))
	r.Notes = append(r.Notes, notes...)
}

// darkPass measures the end-to-end metrics: one untimed warm-up repetition,
// timed repetitions with nothing armed, then set-up several times.
func darkPass(w workload, o runOpts) (*passResult, error) {
	p := o.params()
	res := &passResult{Workload: w.name, Seed: o.seed, Metrics: map[string]metricValue{}}

	rep, err := w.open(p)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.name, err)
	}
	need := minReps
	if o.quick {
		need = 1
	} else if _, err := rep(dark, nil); err != nil { // warm-up
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	var reps []sample
	begin := time.Now()
	for len(reps) < need || time.Since(begin) < time.Duration(o.seconds)*time.Second {
		s, err := measure(rep, dark, nil, true)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, len(reps), err)
		}
		var first *sample
		if len(reps) > 0 {
			first = &reps[0]
		}
		res.absorb(w, o, s, first)
		reps = append(reps, s)
	}
	// Read before set-up is timed: the garbage of a hundred discarded
	// worlds is not the workload's memory.
	rss := peakRSSMB()

	var setups []float64
	for begin := time.Now(); len(setups) < setUpRuns || (time.Since(begin) < setUpFor && len(setups) < setUpMaxRuns); {
		runtime.GC()
		t0 := time.Now()
		if err := w.setUp(p); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if o.quick {
			break
		}
	}

	series := func(f func(sample) float64) []float64 {
		out := make([]float64, len(reps))
		for i, s := range reps {
			out[i] = f(s)
		}
		return out
	}
	put := func(name string, samples []float64) {
		res.Metrics[name] = metricValue{Value: median(samples), Unit: endToEndDef(name).unit, Samples: samples}
	}
	// The two rate metrics report the best repetition, not the median one:
	// see bestOf.
	putBest := func(name string, series []float64) {
		m := endToEndDef(name)
		best, groups := bestOf(series, m.better)
		res.Metrics[name] = metricValue{Value: best, Unit: m.unit, Samples: groups, All: series}
	}
	putBest("pkts_per_s", series(sample.pktsPerS))
	putBest("cpu_us_per_pkt", series(sample.cpuUsPerPkt))
	put("allocs_per_pkt", series(sample.allocsPerPkt))
	put("peak_rss_mb", []float64{rss})
	put("setup_s", setups)
	put("failed_share", []float64{float64(res.Failed) / float64(res.Attempted)})
	res.Fields = reps[len(reps)-1].st.fields
	if gain, ok := res.Fields["gain_pct"]; ok {
		put("paper_err_pp", []float64{math.Abs(gain - paperGainPct)})
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// paperGainPct is the paper's Fig. 7 goodput gain at peak, in percent.
const paperGainPct = 13.0

// tracedPass yields the per-layer metrics: dark reference repetitions,
// counted repetitions (metrics or spans armed), repetitions under the CPU
// profiler, and the probes. The differences between the phases' fastest
// repetitions are the tracing overheads.
func tracedPass(w workload, o runOpts) (*passResult, error) {
	p := o.params()
	res := &passResult{Workload: w.name, Seed: o.seed, Metrics: map[string]metricValue{}}
	spans := newSpanLog(w.name, 70_000)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}

	rep, err := w.open(p)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.name, err)
	}
	if !o.quick {
		if _, err := rep(dark, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	// Each phase gets a share of the run's seconds (and at least two
	// repetitions; one under -quick).
	phase := func(mode repMode, share float64, spans *spanLog, collect bool) ([]sample, error) {
		var out []sample
		budget := time.Duration(share * float64(o.seconds) * float64(time.Second))
		for begin := time.Now(); len(out) < 2 || time.Since(begin) < budget; {
			s, err := measure(rep, mode, spans, collect)
			if err != nil {
				return nil, fmt.Errorf("%s: traced repetition: %w", w.name, err)
			}
			if !collect {
				// The profiler allocates as it samples; these repetitions
				// say nothing about the loop's own allocations.
				s.mallocs = 0
			}
			res.absorb(w, o, s, nil)
			out = append(out, s)
			if o.quick {
				break
			}
		}
		return out, nil
	}
	// As in the dark pass, a phase is as fast as its fastest repetition.
	bestWall := func(ss []sample) float64 {
		best := math.Inf(1)
		for _, s := range ss {
			best = math.Min(best, float64(s.wall))
		}
		return best
	}

	darks, err := phase(dark, 0.3, nil, true)
	if err != nil {
		return nil, err
	}
	counteds, err := phase(counted, 0.15, spans, true)
	if err != nil {
		return nil, err
	}
	profPath := filepath.Join(o.outDir, w.name+".prof")
	stop, err := startProfile(profPath)
	if err != nil {
		return nil, err
	}
	profiled, err := phase(dark, 0.3, nil, false)
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	darkWall := bestWall(darks)
	vals[w.armed] = 100 * (bestWall(counteds)/darkWall - 1)
	vals["bench.profile_overhead_pct"] = 100 * (bestWall(profiled)/darkWall - 1)

	// Counts repeat exactly per seed; the last counted repetition speaks.
	c := counteds[len(counteds)-1].st
	pkts := float64(c.packets)
	if ev := c.counts["events"]; ev > 0 {
		vals["sim.events_per_pkt"] = ev / pkts
		vals["sim.link_tx_per_pkt"] = c.counts["link_tx"] / pkts
		vals["sim.switch_rx_per_pkt"] = c.counts["switch_rx"] / pkts
		vals["sim.barrier_rounds"] = c.counts["barrier_rounds"]
		vals["sim.barrier_cross_msgs_per_pkt"] = c.counts["barrier_cross_msgs"] / pkts
		wallCounted := float64(counteds[len(counteds)-1].wall)
		vals["sim.barrier_stall_share"] = c.counts["barrier_stall_ns"] / (wallCounted * c.counts["partitions"])
		vals["sim.host_ns_per_event"] = darkWall / ev
	}
	for _, k := range []string{"burst_add_ns", "burst_run_ns", "burst_emit_ns"} {
		vals["core."+k] = c.counts[k]
	}
	f := c.fields
	if f["splits"] > 0 {
		vals["core.merge_ratio"] = f["merges"] / f["splits"]
	} else if f["park.splits"] > 0 {
		vals["core.merge_ratio"] = f["park.merges"] / f["park.splits"]
	}
	vals["core.evictions_per_kpkt"] = 1000 * (f["evictions"] + f["park.evictions"]) / pkts
	if rx, ok := c.counts["rx_burst_mean"]; ok { // a live run
		vals["live.rx_burst_mean"] = rx
		vals["live.tx_batch_mean"] = c.counts["tx_batch_mean"]
		vals["live.evictions_per_kpkt"] = vals["core.evictions_per_kpkt"]
		var cpu, wall float64
		for _, s := range darks {
			cpu += float64(s.cpu)
			wall += float64(s.wall)
		}
		vals["live.cores_busy"] = cpu / wall
	}

	// The three end-to-end metrics BENCHMARK.json cannot bound, from the
	// dark reference repetitions.
	allocs := make([]float64, len(darks))
	for i, s := range darks {
		allocs[i] = s.allocsPerPkt()
	}
	vals["run.allocs_per_pkt"] = median(allocs)
	if gain, ok := darks[0].st.fields["gain_pct"]; ok {
		vals["run.paper_err_pp"] = math.Abs(gain - paperGainPct)
	}

	ps, cleanup, err := probes(o.seed)
	if err != nil {
		return nil, err
	}
	res.Probes, err = runProbes(ps, o.quick, spans)
	cleanup()
	if err != nil {
		return nil, err
	}
	for name, pr := range res.Probes {
		vals[name] = pr.Median
	}
	vals["core.allocs_per_pkt"] = math.Max(res.Probes["core.inject_split_ns"].AllocsPerOp, res.Probes["core.inject_merge_ns"].AllocsPerOp)
	vals["trafficgen.allocs_per_pkt"] = res.Probes["trafficgen.next_ns.datacenter"].AllocsPerOp

	shares, n, err := attribute(profPath)
	if err != nil {
		return nil, err
	}
	res.ProfileSamples = n
	for b, share := range shares {
		vals["prof."+b+".share"] = share
	}
	vals["prof.coverage"] = 1 - shares["other"]

	vals["run.failed_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	res.Fields = c.fields
	res.Correct = res.Failed == 0
	if err := writeChromeTrace(filepath.Join(o.outDir, "trace."+w.name+".json"), spans.chromeEvents(workloadIndex(w.name))); err != nil {
		return nil, err
	}
	return res, nil
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i + 1
		}
	}
	return 0
}
