package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
)

// expected.json pins the simulated statistics of the sim workloads for
// seeds 1 and 2 at full size (written by -pin). A simulator speed-up must
// leave every one of them where it is.
//
//go:embed expected.json
var expectedJSON []byte

// pinnedSeeds are the seeds expected.json covers; any other seed checks
// the invariants only.
var pinnedSeeds = []int64{1, 2}

// pinnedFields are the statistics expected.json holds, per workload.
// fabric_16x8_p2 is checked against fabric_16x8's: partitioning must not
// change a single one.
var pinnedFields = map[string][]string{
	"testbed_fig7": {
		"base.delivered", "base.goodput_gbps", "base.avg_latency_us",
		"park.delivered", "park.goodput_gbps", "park.avg_latency_us",
		"park.premature", "park.splits", "park.merges", "park.evictions",
	},
	"fabric_16x8": {
		"delivered", "goodput_gbps", "avg_latency_us", "premature", "splits", "merges", "evictions",
	},
}

func pinnedAs(workload string) string {
	if workload == "fabric_16x8_p2" {
		return "fabric_16x8"
	}
	return workload
}

// expectations is workload -> seed -> field -> value.
type expectations map[string]map[string]map[string]float64

// loadExpected parses the embedded file, once.
var loadExpected = sync.OnceValues(func() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
})

// sameNumber compares a statistic with its pinned value. Counts must be
// equal; the float statistics are compared to 1e-9 relative so that a
// platform that fuses multiply-adds differently does not fail the run.
func sameNumber(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// checkRep checks one repetition's outputs and returns what is wrong with
// them. Every entry counts as one failed operation.
func checkRep(workload string, o runOpts, st repStats, allocsPerPkt float64) []string {
	var bad []string
	f := st.fields
	need := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, workload+": "+fmt.Sprintf(format, args...))
		}
	}
	// Every payload parked is merged, evicted, reclaimed or still parked.
	if splits, ok := f["total.splits"]; ok {
		rest := f["total.merges"] + f["total.evictions"] + f["total.explicit_drops"] + f["total.occupancy"]
		need(splits == rest, "splits %v != merges+evictions+reclaims+occupancy %v", splits, rest)
	}
	switch {
	case workload == "testbed_fig7":
		need(f["park.goodput_gbps"] > f["base.goodput_gbps"], "parking goodput %v not above baseline %v", f["park.goodput_gbps"], f["base.goodput_gbps"])
		need(f["park.healthy"] == 1, "parking run unhealthy")
	case strings.HasPrefix(workload, "dataplane_"):
		need(f["merges"] == f["splits"] && f["evictions"] == 0 && f["premature"] == 0,
			"splits %v merges %v evictions %v premature %v", f["splits"], f["merges"], f["evictions"], f["premature"])
		// 0 allocs/op the way testing.B rounds it: the few allocations of
		// the repetition's own bookkeeping vanish over >10 k frames.
		need(o.quick || allocsPerPkt < 1e-3, "timed loop allocates: %.4f allocs per frame", allocsPerPkt)
	case workload == "live_chain":
		need(f["switch_rx"] == f["switch_tx"]+f["switch_drops"], "switch rx %v != tx %v + drops %v", f["switch_rx"], f["switch_tx"], f["switch_drops"])
		need(f["splits"] == f["merges"]+f["evictions"], "splits %v != merges %v + evictions %v", f["splits"], f["merges"], f["evictions"])
	}
	if names := pinnedFields[pinnedAs(workload)]; names != nil && !o.quick {
		exp, err := loadExpected()
		if err != nil {
			return append(bad, err.Error())
		}
		if want, ok := exp[pinnedAs(workload)][strconv.FormatInt(o.seed, 10)]; ok {
			for _, k := range names {
				need(sameNumber(f[k], want[k]), "%s = %v, pinned %v (seed %d)", k, f[k], want[k], o.seed)
			}
		}
	}
	return bad
}

// pin runs the sim workloads once per pinned seed at full size and writes
// their statistics to path.
func pin(path string) error {
	exp := expectations{}
	for name, fields := range pinnedFields {
		w, _ := findWorkload(name)
		exp[name] = map[string]map[string]float64{}
		for _, seed := range pinnedSeeds {
			rep, err := w.open(params{seed: seed, shrink: 1})
			if err != nil {
				return err
			}
			st, err := rep(dark, nil)
			if err != nil {
				return err
			}
			got := map[string]float64{}
			for _, k := range fields {
				got[k] = st.fields[k]
			}
			exp[name][strconv.FormatInt(seed, 10)] = got
		}
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
