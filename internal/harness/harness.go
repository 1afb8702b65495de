package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"text/tabwriter"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/scenario"
)

// Options controls experiment execution.
type Options struct {
	// Quick shrinks measurement windows and sweep densities for CI-speed
	// runs; shapes survive, absolute precision drops.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Ctx, when non-nil, cancels experiment runs mid-simulation (the CLI
	// binds it to SIGINT). Nil means context.Background().
	Ctx context.Context
}

// ctx resolves the execution context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) warmup() int64 {
	if o.Quick {
		return 2e6
	}
	return 10e6
}

func (o Options) measure() int64 {
	if o.Quick {
		return 8e6
	}
	return 40e6
}

// scnOpts converts harness Options into scenario RunOptions with the
// harness's measurement windows.
func (o Options) scnOpts() scenario.RunOptions {
	return scenario.RunOptions{Seed: o.Seed, WarmupNs: o.warmup(), MeasureNs: o.measure()}
}

// run executes one scenario through the unified entrypoint under the
// options' context.
func run(o Options, s scenario.Scenario) (*scenario.Report, error) {
	return scenario.Run(o.ctx(), s)
}

// runSweep executes a grid through the unified entrypoint under the
// options' context.
func runSweep(o Options, sw scenario.Sweep) (*scenario.SweepReport, error) {
	return scenario.RunSweep(o.ctx(), sw)
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI name, e.g. "fig7".
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports, for side-by-side reading.
	Paper string
	// Run executes the experiment, writing its table/series to w.
	Run func(o Options, w io.Writer) error
	// Collect executes the experiment and returns its structured,
	// JSON-serializable result (what `ppbench -json` emits). Every
	// registered experiment provides it; Run renders the same data as
	// text.
	Collect func(o Options) (any, error)

	// render writes the text form of a collected result. Paired with
	// Collect at registration (see experiment), so the mapping cannot
	// drift from the Run path.
	render func(res any, w io.Writer) error
}

// experiment wires a typed collector and renderer into an Experiment:
// Run collects then renders, Collect returns the structured result, and
// the renderer is retained so Render can re-render a collected value
// (the `ppbench -json` collect-once-render-twice path).
func experiment[T any](e Experiment, collect func(Options) (T, error), render func(T, io.Writer) error) Experiment {
	e.Collect = func(o Options) (any, error) { return collect(o) }
	e.render = func(res any, w io.Writer) error {
		r, ok := res.(T)
		if !ok {
			return fmt.Errorf("harness: %s: render got %T", e.ID, res)
		}
		return render(r, w)
	}
	e.Run = func(o Options, w io.Writer) error {
		res, err := collect(o)
		if err != nil {
			return err
		}
		return render(res, w)
	}
	return e
}

// Render writes the text form of a collected experiment result — the
// bridge CLI front ends use to show tables for a result they also
// marshal as JSON.
func Render(e Experiment, res any, w io.Writer) error {
	if e.render == nil {
		return fmt.Errorf("harness: %s has no renderer", e.ID)
	}
	return e.render(res, w)
}

// registry of experiments, populated by the experiment files' init()s.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every experiment id, sorted — the list CLI front ends show
// and unknown-id errors cite.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// pct renders a ratio as a signed percentage.
func pct(now, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(now-base)/base)
}

// Chain builders shared by experiments. Each call returns fresh NF state.

// ChainFW1 is the single-rule firewall (the paper's two-NF chain firewall
// has one rule, §6.1). The rule blacklists 172.16/12, which generated
// traffic (10/8) never matches, so nothing drops unless an experiment
// wants drops.
func ChainFW1() *nf.Chain {
	return nf.NewChain(nf.NewFirewall([]nf.FirewallRule{
		{Prefix: packet.IPv4Addr{172, 16, 0, 0}, Bits: 12},
	}))
}

// ChainNAT is the single NAT NF.
func ChainNAT() *nf.Chain {
	return nf.NewChain(nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}))
}

// ChainFWNAT is Firewall -> NAT with the single-rule firewall.
func ChainFWNAT() *nf.Chain {
	return nf.NewChain(
		nf.NewFirewall([]nf.FirewallRule{{Prefix: packet.IPv4Addr{172, 16, 0, 0}, Bits: 12}}),
		nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}),
	)
}

// ChainFWNATDrop is Firewall -> NAT with a blacklist dropping roughly the
// given fraction of uniform 10/8 traffic (Fig. 12).
func ChainFWNATDrop(fraction float64) func() *nf.Chain {
	return func() *nf.Chain {
		return nf.NewChain(
			nf.NewFirewall(nf.BlacklistFraction(fraction)),
			nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}),
		)
	}
}

// ChainFWNATLB is the three-NF chain with the 20-rule firewall (§6.1).
func ChainFWNATLB() *nf.Chain {
	rules := make([]nf.FirewallRule, 20)
	for i := range rules {
		// 20 specific /24s inside 172.16/12: never match generated traffic.
		rules[i] = nf.FirewallRule{Prefix: packet.IPv4Addr{172, 16, byte(i), 0}, Bits: 24}
	}
	lb, err := nf.NewLoadBalancer(map[string]packet.IPv4Addr{
		"backend-0": {10, 2, 0, 10}, "backend-1": {10, 2, 0, 11},
		"backend-2": {10, 2, 0, 12}, "backend-3": {10, 2, 0, 13},
	})
	if err != nil {
		panic(err)
	}
	return nf.NewChain(
		nf.NewFirewall(rules),
		nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}),
		lb,
	)
}

// ChainSynthetic wraps one synthetic NF of the given cost.
func ChainSynthetic(name string, cycles uint64) func() *nf.Chain {
	return func() *nf.Chain { return nf.NewChain(nf.NewSynthetic(name, cycles)) }
}

// peakHealthySend binary-searches the highest send rate (bps) whose run
// still satisfies ok (e.g. the <0.1% drop criterion). mk builds the
// scenario for a given send rate. Returns the peak rate and its report.
// The search is inherently sequential (each probe depends on the last
// verdict), so it runs through scenario.Run rather than a Sweep grid.
func peakHealthySend(o Options, mk func(sendBps float64) scenario.Scenario, lo, hi float64, iters int, ok func(*scenario.Report) bool) (float64, *scenario.Report, error) {
	best := lo
	bestRep, err := run(o, mk(lo))
	if err != nil {
		return 0, nil, err
	}
	if !ok(bestRep) {
		// Even the floor is unhealthy; report it as-is.
		return lo, bestRep, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		rep, err := run(o, mk(mid))
		if err != nil {
			return 0, nil, err
		}
		if ok(rep) {
			lo = mid
			best, bestRep = mid, rep
		} else {
			hi = mid
		}
	}
	return best, bestRep, nil
}

// forEachCell runs fn(0..n-1) across a GOMAXPROCS-bounded worker pool
// and returns the first error. Experiments use it for grids of
// independent peak searches, which can't be a RunSweep grid (each search
// is an adaptive probe sequence) but parallelize across cells exactly
// like sweep points do.
func forEachCell(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// After a failure, drain the queue without running the
				// remaining cells — a failed grid reports promptly
				// instead of burning the rest of its searches.
				if failed() {
					continue
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// healthy is the standard <0.1% unintended-drop criterion.
func healthy(r *scenario.Report) bool { return r.Healthy }

// noPrematureEvictions is the Fig. 14 criterion.
func noPrematureEvictions(r *scenario.Report) bool { return r.Premature == 0 && r.Healthy }
