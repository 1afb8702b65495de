// Command ppbench regenerates the paper's tables and figures from the
// simulation harness, which itself runs on the unified Scenario API
// (payloadpark.Run / RunSweep): every experiment is a declarative grid
// or peak search over Scenarios, runs grid points in parallel, and
// aborts promptly on Ctrl-C (context cancellation reaches into running
// simulations).
//
// Usage:
//
//	ppbench -list
//	ppbench -exp fig7 [-quick] [-seed N] [-json out.json]
//	ppbench -exp live [-quick] [-json BENCH_live.json]
//	ppbench -exp all  [-quick] [-json out.json]
//	ppbench -scenario file.json [-json report.json] [-quick] [-seed N]
//	ppbench -program spec.json [-json report.json] [-quick] [-seed N]
//	ppbench -scenario file.json -trace trace.json [-quick] [-seed N]
//
// -exp is the one way to run a registered experiment: it collects the
// experiment's Result, renders it as text, and -json additionally writes
// that same Result — the printed tables (title, header, rows of cells,
// notes) plus the full Report of every run behind them, keyed by scenario
// name — as a machine-readable artifact ("all": one Result per id). An
// experiment whose check gates (equiv, live's sim-vs-live parity) exits
// non-zero after printing. Any other geometry, core count or rate is a
// -scenario file.
//
// -cpuprofile and -memprofile write pprof CPU and heap profiles of the
// run (flushed on exit, including failure exits).
//
// -scenario loads a serialized Scenario (the JSON form payloadpark.Run
// accepts, with the topology as a {"kind","config"} envelope), runs it,
// and prints the structured Report — including the control-plane
// decision timeline when the scenario attaches a controller and each
// table program's counters.
//
// -program loads a bare serialized table-program spec (the declarative
// internal/prog form, e.g. examples/policies/compress-spec.json), lints
// it, runs it as a custom policy on the canonical testbed, and prints the
// Report the same way — new policies are JSON, not Go.
//
// -trace turns on the packet-lifecycle flight recorder for the -scenario
// run and writes the recording as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing); examples/trace/leafspine-4x2.json is a
// 4x2 leaf-spine parking run whose trace shows the full packet lifecycle
// and an adaptive controller. The export is deterministic: same scenario,
// same seed, same bytes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/payloadpark/payloadpark/internal/harness"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/scenario"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		exp      = flag.String("exp", "", "experiment id (e.g. fig7, table1) or 'all'")
		quick    = flag.Bool("quick", false, "shorter windows and sparser sweeps")
		seed     = flag.Int64("seed", 1, "random seed")
		scnFile  = flag.String("scenario", "", "run a serialized Scenario from this JSON file and print its Report")
		progFile = flag.String("program", "", "run a serialized table-program spec (prog.Spec JSON) on the canonical testbed and print its Report")
		jsonOut  = flag.String("json", "", "write the structured experiment result to this file")
		traceOut = flag.String("trace", "", "record the -scenario run's packet-lifecycle flight recorder and write Chrome trace-event JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fail(err)
	}
	defer flushProfiles()

	// Ctrl-C cancels mid-simulation through the Scenario API. The first
	// interrupt cancels the context; stop() then restores the default
	// handler, so a second Ctrl-C force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	opts := harness.Options{Quick: *quick, Seed: *seed, Ctx: ctx}

	if *traceOut != "" && *scnFile == "" {
		fmt.Fprintln(os.Stderr, "ppbench: -trace records a -scenario run (e.g. -scenario examples/trace/leafspine-4x2.json)")
		os.Exit(2)
	}
	if *scnFile != "" || *progFile != "" {
		if err := run(ctx, *scnFile, *progFile, *jsonOut, *traceOut, *quick, *seed); err != nil {
			fail(err)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range harness.IDs() {
			e, _ := harness.ByID(id)
			fmt.Printf("  %-8s %s\n", id, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	collected := map[string]*harness.Result{}
	run := func(e harness.Experiment) error {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		fmt.Printf("   paper: %s\n", e.Paper)
		start := time.Now()
		res, err := e.Run(opts, os.Stdout)
		if res != nil { // a failed gate still returns its Result: keep it
			collected[e.ID] = res
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
		return err
	}

	if *exp == "all" {
		for _, e := range harness.All() {
			if err := run(e); err != nil {
				fmt.Fprintf(os.Stderr, "ppbench: %s: %v\n", e.ID, err)
				// Keep the experiments that did complete: a late failure
				// (or Ctrl-C) should not discard hours of results.
				writeJSON(*jsonOut, collected)
				os.Exit(1)
			}
		}
		writeJSON(*jsonOut, collected)
		return
	}
	e, ok := harness.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "ppbench: unknown experiment %q (valid: %s)\n",
			*exp, strings.Join(harness.IDs(), ", "))
		os.Exit(2)
	}
	err := run(e)
	if res, ok := collected[e.ID]; ok {
		writeJSON(*jsonOut, res)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ppbench: %v\n", err)
	flushProfiles()
	os.Exit(1)
}

// writeJSON marshals v to path (no-op when path is empty).
func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("   wrote %s\n", path)
}

// Profiling plumbing. fail() exits with os.Exit, which skips deferred
// calls, so the flush lives in a package-level hook that both the
// deferred path and fail() invoke (idempotently).
var (
	cpuProfFile *os.File
	memProfPath string
	profFlushed bool
)

// startProfiles starts the CPU profile and records the heap-profile
// destination; flushProfiles finalizes both.
func startProfiles(cpuPath, memPath string) error {
	memProfPath = memPath
	if cpuPath == "" {
		return nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	cpuProfFile = f
	return nil
}

func flushProfiles() {
	if profFlushed {
		return
	}
	profFlushed = true
	if cpuProfFile != nil {
		pprof.StopCPUProfile()
		cpuProfFile.Close()
	}
	if memProfPath != "" {
		f, err := os.Create(memProfPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %v\n", err)
			return
		}
		runtime.GC() // publish up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: heap profile: %v\n", err)
		}
		f.Close()
	}
}

// run loads a -scenario file (a serialized Scenario) or, without one, a
// -program file (a bare table-program spec, installed as a custom policy
// on the canonical testbed with a MAC-swap NF and linted first: a dead
// table or unbound parameter still installs, so the warning goes where the
// author looks), runs it through the unified entrypoint and prints the
// Report: the headline, the control-plane decision timeline, each table
// program's counters and the full JSON. -json additionally writes the
// Report to a file; -trace turns on the flight recorder and exports the
// Chrome trace. The -quick and -seed flags act as fallbacks: they apply
// only when the scenario's own opts leave them unset.
func run(ctx context.Context, scnPath, progPath, jsonPath, tracePath string, quick bool, seed int64) error {
	var s scenario.Scenario
	var header string
	if scnPath != "" {
		data, err := os.ReadFile(scnPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("%s: %w", scnPath, err)
		}
		header = fmt.Sprintf("scenario %s: %s on %s", scnPath, s.Name, s.Topology.Kind())
	} else {
		data, err := os.ReadFile(progPath)
		if err != nil {
			return err
		}
		var spec prog.Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("%s: %w", progPath, err)
		}
		for _, f := range spec.Lint() {
			fmt.Printf("   lint: %s\n", f)
		}
		s = scenario.Scenario{
			Name:     spec.Name,
			Topology: scenario.Testbed{},
			Program:  scenario.Program{Kind: "custom", Spec: &spec},
			Traffic:  scenario.Traffic{SendBps: 4e9, FixedSize: 512},
		}
		header = fmt.Sprintf("program %s: %q on the canonical testbed", progPath, spec.Name)
	}
	if s.Opts.Seed == 0 {
		s.Opts.Seed = seed
	}
	if quick && !s.Opts.Quick && s.Opts.WarmupNs == 0 && s.Opts.MeasureNs == 0 {
		s.Opts.Quick = true
	}
	if tracePath != "" {
		s.Observe.Trace = true
	}
	fmt.Printf("== %s\n", header)
	start := time.Now()
	rep, err := scenario.Run(ctx, s)
	if err != nil {
		return err
	}
	if err := writeTrace(tracePath, rep); err != nil {
		return err
	}
	fmt.Printf("   send=%.3f Gbps goodput=%.3f Gbps lat(avg/max)=%.1f/%.1f us delivered=%d drop=%.4f%% healthy=%t premature=%d\n",
		rep.SendGbps, rep.GoodputGbps, rep.AvgLatencyUs, rep.MaxLatencyUs,
		rep.Delivered, 100*rep.UnintendedDropRate, rep.Healthy, rep.Premature)
	if rep.Control != nil {
		fmt.Printf("   control: %d ticks, %d reroutes, %d rebalances, %d expiry changes, %d demotions, %d restorations\n",
			rep.Control.Ticks, rep.Control.Reroutes, rep.Control.Rebalances,
			rep.Control.ExpiryChanges, rep.Control.Demotions, rep.Control.Restorations)
		for _, d := range rep.Control.Decisions {
			fmt.Printf("     %8.3f ms  %-9s %-10s %s\n", float64(d.AtNs)/1e6, d.Kind, d.Target, d.Detail)
		}
	}
	for _, pc := range rep.Programs {
		fmt.Printf("   program %s: occupancy=%d", pc.Program, pc.Occupancy)
		for _, k := range counterKeys(pc.Counters) {
			fmt.Printf(" %s=%d", k, pc.Counters[k])
		}
		fmt.Println()
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", full)
	fmt.Printf("   (%.1fs)\n", time.Since(start).Seconds())
	writeJSON(jsonPath, rep)
	return nil
}

// counterKeys returns a program's counter names in stable order.
func counterKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTrace exports a report's flight recording as Chrome trace-event
// JSON (no-op when path is empty).
func writeTrace(path string, rep *scenario.Report) error {
	if path == "" {
		return nil
	}
	if rep.Trace == nil {
		return fmt.Errorf("-trace: the run produced no flight recording")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Trace.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("   wrote %s (%d events, %d dropped)\n", path, rep.Trace.Total(), rep.Trace.Dropped())
	return nil
}
