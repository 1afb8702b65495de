package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// AxisPoint is one value on a sweep axis: a label for reports and a
// setter applying the value to a scenario.
type AxisPoint struct {
	Label string
	Set   func(*Scenario)
}

// Axis is one dimension of a sweep grid. Axes compose by cartesian
// product: a Sweep with a 4-point rate axis and a 2-point parking axis
// expands to 8 scenarios.
type Axis struct {
	// Name labels the dimension ("send_gbps", "parking", ...).
	Name string
	// Points are the values, in grid order.
	Points []AxisPoint
}

// AxisOf builds an axis from explicit points.
func AxisOf(name string, points ...AxisPoint) Axis {
	return Axis{Name: name, Points: points}
}

// axisOver is every *Axis constructor below: one point per value,
// labelled by label and applied by set.
func axisOver[T any](name string, values []T, label func(T) string, set func(*Scenario, T)) Axis {
	a := Axis{Name: name}
	for _, v := range values {
		a.Points = append(a.Points, AxisPoint{Label: label(v), Set: func(s *Scenario) { set(s, v) }})
	}
	return a
}

// number labels a numeric axis value: %g for floats, %d for integers.
func number[T int | float64](v T) string { return fmt.Sprint(v) }

// SendGbpsAxis sweeps the per-source offered load in Gbps.
func SendGbpsAxis(rates ...float64) Axis {
	return axisOver("send_gbps", rates, number[float64], func(s *Scenario, r float64) { s.Traffic.SendBps = r * 1e9 })
}

// ParkingAxis sweeps the parking mode (sim.ParkNone is the baseline).
func ParkingAxis(modes ...sim.ParkMode) Axis {
	return axisOver("parking", modes, sim.ParkMode.String, func(s *Scenario, m sim.ParkMode) { s.Parking.Mode = m })
}

// ControlAxis sweeps control-plane specs. Labels derive from the spec:
// "static" (zero value), "ecmp", "adaptive", or "ecmp+adaptive".
func ControlAxis(specs ...Control) Axis {
	return axisOver("control", specs, Control.Label, func(s *Scenario, c Control) { s.Control = c })
}

// CoresAxis sweeps the NF server's core count. An unset server starts
// from sim.DefaultServerModel, which a topology would otherwise put in
// place of the whole section.
func CoresAxis(counts ...int) Axis {
	return axisOver("cores", counts, number[int], func(s *Scenario, c int) {
		if s.Server.FreqHz == 0 {
			s.Server = sim.DefaultServerModel()
		}
		s.Server.Cores = c
	})
}

// PacketSizeAxis sweeps fixed packet sizes in bytes.
func PacketSizeAxis(sizes ...int) Axis {
	return axisOver("size", sizes, number[int], func(s *Scenario, n int) { s.Traffic.Dist = trafficgen.Fixed(n) })
}

// Sweep expands a parameter grid over a base scenario: the cartesian
// product of its axes, each point a copy of Base with the axis setters
// applied (first axis outermost, last axis fastest-varying).
type Sweep struct {
	// Name labels the sweep in its report (default: Base.Name).
	Name string
	// Base is the template scenario every point starts from.
	Base Scenario
	// Axes are the grid dimensions. An empty list is a single-point
	// sweep (just Base).
	Axes []Axis
}

// SweepPoint is one executed grid point.
type SweepPoint struct {
	// Index is the point's coordinate along each axis; Labels the
	// corresponding axis-point labels.
	Index  []int    `json:"index"`
	Labels []string `json:"labels"`
	// Report is the run's result; Err the failure message when the
	// point's scenario was invalid (exactly one is set).
	Report *Report `json:"report,omitempty"`
	Err    string  `json:"error,omitempty"`
}

// SweepReport is the structured outcome of RunSweep: the grid shape and
// one point per scenario, in expansion order.
type SweepReport struct {
	Name   string       `json:"name"`
	Axes   []string     `json:"axes"`
	Shape  []int        `json:"shape"`
	Points []SweepPoint `json:"points"`
}

// At returns the point at the given per-axis coordinates.
func (r *SweepReport) At(idx ...int) *SweepPoint {
	if len(idx) != len(r.Shape) {
		panic(fmt.Sprintf("scenario: At(%v) on a %d-axis sweep", idx, len(r.Shape)))
	}
	flat := 0
	for d, i := range idx {
		if i < 0 || i >= r.Shape[d] {
			panic(fmt.Sprintf("scenario: At(%v) outside shape %v", idx, r.Shape))
		}
		flat = flat*r.Shape[d] + i
	}
	return &r.Points[flat]
}

// walk visits the grid in expansion order (first axis outermost, last axis
// fastest-varying): each point's scenario, named "base[axis=label ...]",
// its coordinate along each axis and the matching axis-point labels.
func (sw Sweep) walk(visit func(s Scenario, idx []int, labels []string)) {
	total := 1
	for _, a := range sw.Axes {
		total *= len(a.Points)
	}
	idx := make([]int, len(sw.Axes))
	for n := 0; n < total; n++ {
		s := sw.Base
		var labels, parts []string
		for d, a := range sw.Axes {
			p := a.Points[idx[d]]
			p.Set(&s)
			labels = append(labels, p.Label)
			parts = append(parts, a.Name+"="+p.Label)
		}
		if len(parts) > 0 {
			s.Name = fmt.Sprintf("%s[%s]", s.Name, strings.Join(parts, " "))
		}
		visit(s, append([]int(nil), idx...), labels)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < len(sw.Axes[d].Points) {
				break
			}
			idx[d] = 0
		}
	}
}

// Expand materializes the grid: one scenario per point, named
// "base[axis=label ...]", in the same order RunSweep reports them.
func (sw Sweep) Expand() []Scenario {
	var out []Scenario
	sw.walk(func(s Scenario, _ []int, _ []string) { out = append(out, s) })
	return out
}

// Each calls fn(0), ..., fn(n-1) on one worker per scheduler P, at most
// n. A worker starts no new index once ctx is done or an fn has failed, so
// a failed or canceled batch stops promptly. Each returns the first error
// an fn returned, else ctx.Err(). Sweeps and the harness's grids of
// independent peak searches share it.
func Each(ctx context.Context, n int, fn func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		first  error // written once, by the worker that sets failed
		wg     sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil && failed.CompareAndSwap(false, true) {
					first = err
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// RunSweep expands the grid and runs its points through Each. Point order
// in the report is deterministic (expansion order) regardless of worker
// interleaving, and so are the results: every point is an independent,
// seeded, single-threaded simulation, so points scale across cores. A
// point whose scenario fails carries the message in Err and the other
// points still run.
//
// Cancellation is honored mid-simulation: on ctx cancellation no further
// point starts, in-flight simulations abort within a few thousand
// events, and RunSweep returns the partial report alongside ctx.Err().
// Points that never ran have neither Report nor Err set.
func RunSweep(ctx context.Context, sw Sweep) (*SweepReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sw.Base.Topology == nil {
		return nil, errf("sweep: base scenario has a nil Topology")
	}
	rep := &SweepReport{Name: sw.Name}
	if rep.Name == "" {
		rep.Name = sw.Base.Name
	}
	for _, a := range sw.Axes {
		if len(a.Points) == 0 {
			return nil, errf("sweep: axis %q has no points", a.Name)
		}
		rep.Axes = append(rep.Axes, a.Name)
		rep.Shape = append(rep.Shape, len(a.Points))
	}
	// Coordinates and labels are filled up front, so canceled points still
	// identify themselves.
	var scns []Scenario
	sw.walk(func(s Scenario, idx []int, labels []string) {
		scns = append(scns, s)
		rep.Points = append(rep.Points, SweepPoint{Index: idx, Labels: labels})
	})
	err := Each(ctx, len(scns), func(i int) error {
		r, err := Run(ctx, scns[i])
		switch {
		case err == nil:
			rep.Points[i].Report = r
		case ctx.Err() == nil: // a canceled point stays unrun
			rep.Points[i].Err = err.Error()
		}
		return nil
	})
	return rep, err
}
