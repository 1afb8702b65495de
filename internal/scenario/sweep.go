package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

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

// CoresAxis sweeps the NF server's core count.
func CoresAxis(counts ...int) Axis {
	return axisOver("cores", counts, number[int], func(s *Scenario, c int) {
		s.Server.Cores = c
		if ms, ok := s.Topology.(MultiServer); ok {
			ms.Cores = c
			s.Topology = ms
		}
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

// Expand materializes the grid: one scenario per point, named
// "base[axis=label ...]", in the same order RunSweep reports them.
func (sw Sweep) Expand() []Scenario {
	total := 1
	for _, a := range sw.Axes {
		total *= len(a.Points)
	}
	out := make([]Scenario, 0, total)
	idx := make([]int, len(sw.Axes))
	for n := 0; n < total; n++ {
		s := sw.Base
		var parts []string
		for d, a := range sw.Axes {
			p := a.Points[idx[d]]
			p.Set(&s)
			parts = append(parts, a.Name+"="+p.Label)
		}
		if len(parts) > 0 {
			s.Name = fmt.Sprintf("%s[%s]", s.Name, strings.Join(parts, " "))
		}
		out = append(out, s)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < len(sw.Axes[d].Points) {
				break
			}
			idx[d] = 0
		}
	}
	return out
}

// RunSweep expands the grid and runs its points in parallel across a
// pool of min(GOMAXPROCS, points) workers. Point order in the report is
// deterministic (expansion order) regardless of worker interleaving, and
// so are the results: every point is an independent, seeded,
// single-threaded simulation, so points scale across cores.
//
// Cancellation is honored mid-simulation: on ctx cancellation the
// feeder stops, in-flight simulations abort within a few thousand
// events, every worker exits, and RunSweep returns the partial report
// alongside ctx.Err(). Points that never ran have neither Report nor
// Err set.
func RunSweep(ctx context.Context, sw Sweep) (*SweepReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sw.Base.Topology == nil {
		return nil, errf("sweep: base scenario has a nil Topology")
	}
	for _, a := range sw.Axes {
		if len(a.Points) == 0 {
			return nil, errf("sweep: axis %q has no points", a.Name)
		}
	}
	scns := sw.Expand()
	rep := &SweepReport{Name: sw.Name, Points: make([]SweepPoint, len(scns))}
	if rep.Name == "" {
		rep.Name = sw.Base.Name
	}
	for _, a := range sw.Axes {
		rep.Axes = append(rep.Axes, a.Name)
		rep.Shape = append(rep.Shape, len(a.Points))
	}
	// Fill coordinates and labels up front so canceled points still
	// identify themselves.
	idx := make([]int, len(sw.Axes))
	for n := range scns {
		pt := &rep.Points[n]
		pt.Index = append([]int(nil), idx...)
		for d, a := range sw.Axes {
			pt.Labels = append(pt.Labels, a.Points[idx[d]].Label)
		}
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < len(sw.Axes[d].Points) {
				break
			}
			idx[d] = 0
		}
	}

	// Serialize the progress callback: Run invokes it from worker
	// goroutines.
	if prog := sw.Base.Opts.Progress; prog != nil {
		var mu sync.Mutex
		total := len(scns)
		done := 0
		wrapped := func(label string) {
			mu.Lock()
			defer mu.Unlock()
			done++
			prog(fmt.Sprintf("[%d/%d] %s", done, total, label))
		}
		for i := range scns {
			scns[i].Opts.Progress = wrapped
		}
	}

	workers := max(min(runtime.GOMAXPROCS(0), len(scns)), 1)

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r, err := Run(ctx, scns[i])
				switch {
				case err == nil:
					rep.Points[i].Report = r
				case ctx.Err() != nil:
					// Canceled: leave the point unrun and drain quickly.
				default:
					rep.Points[i].Err = err.Error()
				}
			}
		}()
	}
feed:
	for i := range scns {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}
