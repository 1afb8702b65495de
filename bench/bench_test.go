package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestQuickSmoke runs every workload at 1/50 size, one repetition, both
// passes, and holds the output against BENCHMARK.json: every declared
// workload and metric present, with the declared unit. It asserts no
// timing.
func TestQuickSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the table, want 2..8 and equal", n, len(workloads))
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the table, want 1..128 and equal", n, len(perLayer))
	}
	seen := map[string]bool{}
	name := func(kind, s string) {
		if !nameRE.MatchString(s) || seen[s] {
			t.Errorf("%s name %q is malformed or used twice", kind, s)
		}
		seen[s] = true
	}

	e2eUnits := map[string]string{}
	for _, m := range decl.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		e2eUnits[m.Name] = m.Unit
	}
	for _, m := range endToEnd {
		if m.driver && (e2eUnits[m.name] != m.unit) {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, table %q", m.name, e2eUnits[m.name], m.unit)
		}
		if !m.driver && e2eUnits[m.name] != "" {
			t.Errorf("end-to-end %s is declared to the driver but can be 0", m.name)
		}
	}
	for i, m := range decl.PerLayer {
		name("per-layer", m.Name)
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, table has %s %s %s", i, m, want.name, want.unit, want.better)
		}
	}

	o := runOpts{seed: 1, quick: true, outDir: t.TempDir()}
	for i, dw := range decl.Workloads {
		name("workload", dw.Name)
		w, ok := findWorkload(dw.Name)
		if !ok || workloads[i].name != dw.Name {
			t.Fatalf("workload %q is not row %d of the table", dw.Name, i)
		}
		t.Run(w.name, func(t *testing.T) {
			for _, pass := range []struct {
				name  string
				run   func(workload, runOpts) (*passResult, error)
				units map[string]string
			}{
				{"dark", darkPass, e2eUnits},
				{"traced", tracedPass, perLayerUnits()},
			} {
				res, err := pass.run(w, o)
				if err != nil {
					t.Fatalf("%s pass: %v", pass.name, err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("%s pass: correct=%t attempted=%d failed=%d: %v", pass.name, res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				for metric, unit := range pass.units {
					if got, ok := res.Metrics[metric]; !ok || got.Unit != unit {
						t.Errorf("%s pass: metric %s missing or unit %q, want %q", pass.name, metric, got.Unit, unit)
					}
				}
			}
		})
	}
}

func perLayerUnits() map[string]string {
	u := map[string]string{}
	for _, m := range perLayer {
		u[m.name] = m.unit
	}
	return u
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which the acceptance procedure is written in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	pps := metricDef{name: "pkts_per_s", better: higher, bound: 0.08}
	mk := func(samples ...float64) metricValue {
		return metricValue{Value: median(samples), Samples: samples}
	}
	for _, c := range []struct {
		old, cur metricValue
		want     string
	}{
		{mk(100, 101, 99), mk(95, 96, 94), "ok"},
		{mk(100, 101, 99), mk(90, 91, 89), "regressed"},
		{mk(100, 101, 99), mk(120, 121, 119), "ok"},
		{mk(100, 120, 80), mk(90, 91, 89), "unresolved"},
	} {
		if got := verdict(pps, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.old.Samples, c.cur.Samples, got, c.want)
		}
	}
	failed := metricDef{name: "failed_share", better: lower} // any increase regresses
	if got := verdict(failed, mk(0), mk(1e-6)); got != "regressed" {
		t.Errorf("failed_share 0 -> 1e-6 = %s, want regressed", got)
	}
}

// TestPinnedMismatchFails makes sure a pinned seed at full size really is
// held against expected.json: a run whose statistics moved must not pass.
func TestPinnedMismatchFails(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fabric_16x8", "fabric_16x8_p2"} {
		fields := map[string]float64{}
		for k, v := range exp["fabric_16x8"]["1"] {
			fields[k] = v
		}
		if len(fields) == 0 {
			t.Fatal("expected.json has no fabric_16x8 seed 1")
		}
		if bad := checkRep(name, runOpts{seed: 1}, repStats{fields: fields}, 0); len(bad) != 0 {
			t.Errorf("%s: pinned statistics rejected: %v", name, bad)
		}
		fields["delivered"]++
		if bad := checkRep(name, runOpts{seed: 1}, repStats{fields: fields}, 0); len(bad) != 1 {
			t.Errorf("%s: one moved statistic gave %d findings: %v", name, len(bad), bad)
		}
	}
}

func TestBucketOf(t *testing.T) {
	const mod = "github.com/payloadpark/payloadpark/internal/"
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", mod + "core.(*Switch).deparse", mod + "sim.(*SwitchNode).handle", "main.main"}, "core"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.sendmsg", mod + "wire.(*BatchSender).flushFast"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.(*mheap).alloc", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"runtime.duffcopy", mod + "sim.(*Engine).Run", mod + "scenario.Run"}, "sim"},
		{[]string{"bytes.Equal", "main.(*dataplane).burst"}, "other"},
		{[]string{mod + "harness.Run"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
