package sim

import (
	"reflect"
	"testing"
)

// TestRunsAreDeterministic: identical configurations produce bit-identical
// results — the property that makes every experiment in this repository
// reproducible.
func TestRunsAreDeterministic(t *testing.T) {
	cfg := smokeConfig(true, 9)
	cfg.Opts.WarmupNs = 2e6
	cfg.Opts.MeasureNs = 8e6
	a := cfg.run(t)
	b := cfg.run(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

// TestSeedChangesResults: different seeds genuinely change the workload.
func TestSeedChangesResults(t *testing.T) {
	cfg := smokeConfig(true, 9)
	cfg.Opts.WarmupNs = 2e6
	cfg.Opts.MeasureNs = 8e6
	a := cfg.run(t)
	cfg.Opts.Seed = 2
	b := cfg.run(t)
	if a.Delivered == b.Delivered && a.AvgLatencyUs == b.AvgLatencyUs {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// TestJitterPreservesMeanService: with jitter on, throughput at moderate
// load stays near the no-jitter value (mean service time unchanged).
func TestJitterPreservesMeanService(t *testing.T) {
	mk := func(jitter float64) testbedRun {
		cfg := smokeConfig(true, 6)
		cfg.Server = DefaultServerModel()
		cfg.Server.ServiceJitterPct = jitter
		cfg.Opts.WarmupNs = 2e6
		cfg.Opts.MeasureNs = 10e6
		return cfg
	}
	a := mk(0).run(t)
	b := mk(0.4).run(t)
	if diff := b.GoodputGbps/a.GoodputGbps - 1; diff > 0.02 || diff < -0.02 {
		t.Errorf("jitter changed mean throughput by %.1f%%", 100*diff)
	}
	// But jitter raises latency variance (queueing).
	if b.MaxLatencyUs <= a.MaxLatencyUs {
		t.Logf("note: jitter did not raise max latency (a=%.1f b=%.1f)", a.MaxLatencyUs, b.MaxLatencyUs)
	}
}

// TestStallModelInjectsLatency: the Fig. 14 stall mechanism visibly
// lengthens the latency tail without changing low-load goodput.
func TestStallModelInjectsLatency(t *testing.T) {
	mk := func(stall bool) testbedRun {
		cfg := smokeConfig(true, 4)
		cfg.Server = DefaultServerModel() // set first: Resolve replaces a zero model
		if stall {
			cfg.Server.StallPeriodNs = 5e6
			cfg.Server.StallNs = 1e6
		}
		cfg.Server.NICRing = 65536
		cfg.Server.StageQueue = 65536
		cfg.Opts.WarmupNs = 2e6
		cfg.Opts.MeasureNs = 15e6
		return cfg
	}
	calm := mk(false).run(t)
	stalled := mk(true).run(t)
	if stalled.MaxLatencyUs < 5*calm.MaxLatencyUs {
		t.Errorf("stalls not visible in latency tail: calm=%.1fus stalled=%.1fus",
			calm.MaxLatencyUs, stalled.MaxLatencyUs)
	}
	if diff := stalled.GoodputGbps/calm.GoodputGbps - 1; diff > 0.02 || diff < -0.02 {
		t.Errorf("stalls changed low-load goodput by %.1f%%", 100*diff)
	}
}
