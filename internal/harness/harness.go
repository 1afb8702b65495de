package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
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

// opts are the run options every experiment scenario starts from: the
// seed and the Quick flag. The measurement windows are the runners' own
// defaults (sim.RunOptions.Windows).
func (o Options) opts() scenario.RunOptions {
	return scenario.RunOptions{Seed: o.Seed, Quick: o.Quick}
}

// stretched is opts with the default measurement window scaled by f, for
// the runs that need a longer (failure phases) or shorter (probes) one.
func (o Options) stretched(f float64) scenario.RunOptions {
	ro := o.opts()
	_, measure := ro.Windows()
	ro.MeasureNs = int64(f * float64(measure))
	return ro
}

// iters is the depth of a peak-healthy binary search.
func (o Options) iters() int {
	if o.Quick {
		return 5
	}
	return 7
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI name, e.g. "fig7".
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports, for side-by-side reading.
	Paper string
	// Collect runs the experiment's scenarios and returns what it prints
	// and the runs behind it. An experiment whose check gates (equiv's
	// capture comparison, live's counter parity) returns the Result
	// together with an error when the check fails, so callers that stop at
	// the error fail closed and callers that render first still show why.
	Collect func(o Options) (*Result, error)
}

// Run collects the experiment, writes its text form to w and returns the
// Result. A failed gate's Result is still rendered and returned, with the
// gate's error.
func (e Experiment) Run(o Options, w io.Writer) (*Result, error) {
	res, err := e.Collect(o)
	if res != nil {
		if rerr := res.Render(w); err == nil {
			err = rerr
		}
	}
	return res, err
}

// Table is one printed table: an optional title line, an optional header
// and rows of already-formatted cells (aligned in columns when rendered),
// and trailing note lines.
type Table struct {
	Title  string     `json:"title,omitempty"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Notes  []string   `json:"notes,omitempty"`
}

// row appends one row; the format's tabs separate its cells.
func (t *Table) row(format string, args ...any) {
	t.Rows = append(t.Rows, strings.Split(fmt.Sprintf(format, args...), "\t"))
}

// note appends one trailing line.
func (t *Table) note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Result is everything an experiment produces, and the one shape
// `ppbench -json` writes: the tables it prints and the Report of every
// run behind them, keyed by scenario name.
type Result struct {
	Tables []*Table                    `json:"tables"`
	Runs   map[string]*scenario.Report `json:"runs,omitempty"`

	mu sync.Mutex // guards Runs: grid cells record from worker goroutines
}

// table starts a new table; header's tabs separate its cells ("" for a
// table of notes only).
func (r *Result) table(title, header string) *Table {
	t := &Table{Title: title}
	if header != "" {
		t.Header = strings.Split(header, "\t")
	}
	r.Tables = append(r.Tables, t)
	return t
}

// record files a finished run under its scenario name.
func (r *Result) record(rep *scenario.Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Runs == nil {
		r.Runs = make(map[string]*scenario.Report)
	}
	r.Runs[rep.Scenario] = rep
}

// run executes one scenario through the unified entrypoint under the
// options' context and records its report.
func (r *Result) run(o Options, s scenario.Scenario) (*scenario.Report, error) {
	rep, err := scenario.Run(o.ctx(), s)
	if err != nil {
		return nil, err
	}
	r.record(rep)
	return rep, nil
}

// sweep executes a grid in parallel and records every point; a point that
// failed fails the experiment.
func (r *Result) sweep(o Options, sw scenario.Sweep) (*scenario.SweepReport, error) {
	grid, err := scenario.RunSweep(o.ctx(), sw)
	if err != nil {
		return nil, err
	}
	for _, pt := range grid.Points {
		if pt.Err != "" {
			return nil, fmt.Errorf("harness: %s %v: %s", grid.Name, pt.Labels, pt.Err)
		}
		r.record(pt.Report)
	}
	return grid, nil
}

// Render writes the text form: tables separated by a blank line, each its
// title, its aligned header and rows, then its notes.
func (r *Result) Render(w io.Writer) error {
	for i, t := range r.Tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if t.Title != "" {
			fmt.Fprintln(w, t.Title)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		if len(t.Header) > 0 {
			fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
		}
		for _, row := range t.Rows {
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		for _, n := range t.Notes {
			fmt.Fprintln(w, n)
		}
	}
	return nil
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

// pct renders a ratio as a signed percentage.
func pct(now, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", gainPct(base, now))
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

// parkArms are the two deployments every §6 figure compares, baseline
// first.
var parkArms = [2]sim.ParkMode{sim.ParkNone, sim.ParkEdge}

// atSend returns base as a function of its send rate: the scenario
// builder a peak search probes.
func atSend(base scenario.Scenario) func(sendBps float64) scenario.Scenario {
	return func(sendBps float64) scenario.Scenario {
		base.Traffic.SendBps = sendBps
		return base
	}
}

// arm is atSend for base deployed in one parking mode. what tags the
// run's name, keeping the peak and the PCIe runs of one base distinct in
// Result.Runs.
func arm(base scenario.Scenario, what string, mode sim.ParkMode) func(sendBps float64) scenario.Scenario {
	base.Name = fmt.Sprintf("%s-%s[parking=%s]", base.Name, what, mode)
	base.Parking.Mode = mode
	return atSend(base)
}

// peakHealthySend binary-searches the highest send rate (bps) whose run
// still satisfies ok (e.g. the <0.1% drop criterion). mk builds the
// scenario for a given send rate. Returns the peak rate and its report.
// The search is inherently sequential (each probe depends on the last
// verdict), so it runs through scenario.Run rather than a Sweep grid.
func peakHealthySend(o Options, mk func(sendBps float64) scenario.Scenario, lo, hi float64, iters int, ok func(*scenario.Report) bool) (float64, *scenario.Report, error) {
	best := lo
	bestRep, err := scenario.Run(o.ctx(), mk(lo))
	if err != nil {
		return 0, nil, err
	}
	if !ok(bestRep) {
		// Even the floor is unhealthy; report it as-is.
		return lo, bestRep, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		rep, err := scenario.Run(o.ctx(), mk(mid))
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

// peaks is the two-arm peak search: base's peak healthy send rate (bps)
// and the report at it, as baseline and as PayloadPark (parkArms order).
// The PayloadPark search may explore a higher ceiling than the baseline's.
func (r *Result) peaks(o Options, base scenario.Scenario, lo, hiBase, hiPP float64) (send [2]float64, rep [2]*scenario.Report, err error) {
	for i, hi := range [2]float64{hiBase, hiPP} {
		send[i], rep[i], err = peakHealthySend(o, arm(base, "peak", parkArms[i]), lo, hi, o.iters(), healthy)
		if err != nil {
			return send, rep, err
		}
		r.record(rep[i])
	}
	return send, rep, nil
}

// pcie compares PCIe bus traffic (Gbps) of base's two arms at a common
// sub-saturation send rate, where both carry the same pps and the
// per-packet byte ratio shows (paper: "at all send rates").
func (r *Result) pcie(o Options, base scenario.Scenario, sendBps float64) (gbps [2]float64, err error) {
	for i, mode := range parkArms {
		rep, err := r.run(o, arm(base, "pcie", mode)(sendBps))
		if err != nil {
			return gbps, err
		}
		gbps[i] = rep.Testbed.PCIeGbps
	}
	return gbps, nil
}

// savingsPct is how much smaller now is than base, in percent (0 for a
// zero base).
func savingsPct(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - now) / base
}

// gainPct is how much larger now is than base, in percent (0 for a zero
// base).
func gainPct(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (now - base) / base
}

// healthy is the standard <0.1% unintended-drop criterion.
func healthy(r *scenario.Report) bool { return r.Healthy }

// noPrematureEvictions is the Fig. 14 criterion.
func noPrematureEvictions(r *scenario.Report) bool { return r.Premature == 0 && r.Healthy }
