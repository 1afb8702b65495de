// Command bench is the repository's benchmark: six workloads, each run
// dark for the end-to-end metrics and traced for the per-layer ledger and
// the CPU attribution. See README.md in this directory.
//
//	bash bench/run.sh -seed 1 -out bench/out/result.json   every workload, both passes
//	bash bench/run.sh -compare old.json new.json            judge two results
//	bash bench/run.sh -noise 10                             ten seeds per workload, spreads
//	bash bench/run.sh --workload fabric_16x8 --seed 3 --seconds 10 --trace 0
//
// The last form is what BENCHMARK.json's driver runs: one pass over one
// workload, its result as one JSON object on the last line of stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one pass over this workload and print the driver's JSON line")
		trace        = flag.Int("trace", 0, "with -workload: 0 = dark pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		seed         = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds      = flag.Int("seconds", 8, "measure for at least this long (and at least the workload's minimum repetitions)")
		quick        = flag.Bool("quick", false, "smoke size: one repetition of every workload at a tenth of its size, probes at a fiftieth")
		out          = flag.String("out", "", "all-workloads and -noise modes: write the result JSON here (default <outdir>/result.json or noise.json)")
		outDir       = flag.String("outdir", "bench/out", "directory for traces, raw profiles and results")
		detail       = flag.String("detail", "", "with -workload: also write the full pass result here")
		doCompare    = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		noiseRuns    = flag.Int("noise", 0, "run each workload's dark pass with seeds 1..N and report each metric's spread")
		pinPath      = flag.String("pin", "", "re-record the pinned simulated statistics into this file (bench/expected.json)")
	)
	flag.Parse()
	o := runOpts{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
	if o.quick {
		o.seconds = 0 // one repetition, however short
	}

	var err error
	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
			break
		}
		var regressed bool
		regressed, err = compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *pinPath != "":
		err = pin(*pinPath)
	case *workloadName != "":
		err = runOne(*workloadName, *trace == 1, o, *detail)
	case *noiseRuns > 0:
		err = runNoise(*noiseRuns, o, *out)
	default:
		err = runAll(o, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne is the driver's contract: one pass, one JSON object with exactly
// correct/attempted/failed/metrics on the last line of stdout. An
// incorrect run still prints its line and exits 0: the line says so.
func runOne(name string, traced bool, o runOpts, detailPath string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	pass := darkPass
	if traced {
		pass = tracedPass
	}
	res, err := pass(w, o)
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "bench: check failed:", n)
	}
	if detailPath != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(detailPath, data, 0o644); err != nil {
			return err
		}
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted uint64                  `json:"attempted"`
		Failed    uint64                  `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]driverMetric{}}
	for name, m := range res.Metrics {
		if traced || endToEndDef(name).driver {
			line.Metrics[name] = driverMetric{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// child re-executes this binary for one pass over one workload, so every
// workload gets its own heap, collector pacing and peak RSS.
func child(name string, traced bool, o runOpts) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	kind, t := "dark", "0"
	if traced {
		kind, t = "traced", "1"
	}
	detailPath := filepath.Join(o.outDir, name+"."+kind+".json")
	args := []string{"-workload", name, "-trace", t, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-outdir", o.outDir, "-detail", detailPath}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (%s pass): %w", name, kind, err)
	}
	data, err := os.ReadFile(detailPath)
	if err != nil {
		return nil, err
	}
	var res passResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", detailPath, err)
	}
	return &res, nil
}

func host() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs both passes of every workload, prints every metric by name
// with unit, value (median, or best repetition for the two rates), spread
// and sample count, and writes the result file
// and the merged span trace. It fails when any output check failed.
func runAll(o runOpts, outPath string) error {
	if outPath == "" {
		outPath = filepath.Join(o.outDir, "result.json")
	}
	file := resultFile{Schema: 1, Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Host: host()}
	var events []chromeEvent
	var failed uint64
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tvalue\tspread\tn")
	for _, w := range workloads {
		darkRes, err := child(w.name, false, o)
		if err != nil {
			return err
		}
		tracedRes, err := child(w.name, true, o)
		if err != nil {
			return err
		}
		file.Workloads = append(file.Workloads, workloadResult{Name: w.name, Dark: darkRes, Traced: tracedRes})
		failed += darkRes.Failed + tracedRes.Failed
		for _, m := range endToEnd {
			if v, ok := darkRes.Metrics[m.name]; ok {
				n := len(v.Samples)
				if v.All != nil {
					n = len(v.All) // a best-of metric: spread over its groups' bests, n repetitions
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.2f%%\t%d\n", w.name, m.name, v.Unit, v.Value, 100*spreadShare(v.Samples), n)
			}
		}
		for _, m := range perLayer {
			v := tracedRes.Metrics[m.name]
			if pr, ok := tracedRes.Probes[m.name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\tp%.1f %.6g\t%dx%d\n", w.name, m.name, v.Unit, v.Value, pr.HighPct, pr.High, pr.N, pr.CallsPerN)
			} else {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t-\t1\n", w.name, m.name, v.Unit, v.Value)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		evs, err := readChromeTrace(filepath.Join(o.outDir, "trace."+w.name+".json"))
		if err != nil {
			return err
		}
		events = append(events, evs...)
	}
	if err := writeChromeTrace(filepath.Join(o.outDir, "trace.json"), events); err != nil {
		return err
	}
	if err := writeJSON(outPath, file); err != nil {
		return err
	}
	fmt.Printf("wrote %s (spans: %s, profiles: %s)\n", outPath, filepath.Join(o.outDir, "trace.json"), filepath.Join(o.outDir, "*.prof"))
	if failed > 0 {
		return fmt.Errorf("%d output checks failed", failed)
	}
	return nil
}

// noiseRow is one (workload, metric) pair's spread over the noise runs.
type noiseRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	// Spread is (q3-q1)/median, the share every bound is judged against.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"floor,omitempty"`
	// Within says the spread stays inside the bound (or the floor).
	Within bool `json:"within"`
}

// noiseFile is what -noise writes: the acceptance procedure's spreads.
type noiseFile struct {
	Runs    int        `json:"runs"`
	Seconds int        `json:"seconds"`
	Host    hostInfo   `json:"host"`
	Rows    []noiseRow `json:"rows"`
}

// runNoise runs each workload's dark pass n times, seeds 1..n, and reports
// for every end-to-end metric the distance between the quartiles of its n
// medians as a share of their median.
func runNoise(n int, o runOpts, outPath string) error {
	if outPath == "" {
		outPath = filepath.Join(o.outDir, "noise.json")
	}
	file := noiseFile{Runs: n, Seconds: o.seconds, Host: host()}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\twithin")
	wide, incorrect := 0, 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for s := int64(1); s <= int64(n); s++ {
			oo := o
			oo.seed = s
			res, err := child(w.name, false, oo)
			if err != nil {
				return err
			}
			if !res.Correct {
				incorrect++
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d output checks failed\n", w.name, s, res.Failed)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range endToEnd {
			vs, ok := values[m.name]
			if !ok {
				continue
			}
			q1, q3 := quartiles(vs)
			row := noiseRow{Workload: w.name, Metric: m.name, Unit: m.unit, Values: vs,
				Median: median(vs), Q1: q1, Q3: q3, Spread: spreadShare(vs), Bound: m.bound, Floor: m.floor}
			// paper_err_pp follows the seed by design; it has no noise bound.
			row.Within = m.name == "paper_err_pp" || q3-q1 <= m.allowance(row.Median)
			if !row.Within {
				wide++
			}
			file.Rows = append(file.Rows, row)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%t\n", w.name, m.name, m.unit, row.Median, q1, q3, 100*row.Spread, 100*row.Bound, row.Within)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if err := writeJSON(outPath, file); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if wide > 0 || incorrect > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound, %d runs failed an output check", wide, incorrect)
	}
	return nil
}
