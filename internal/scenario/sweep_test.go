package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/sim"
)

// seeds is a repetition axis over the random seed.
func seeds(vs ...int64) Axis {
	var pts []AxisPoint
	for _, v := range vs {
		pts = append(pts, AxisPoint{Label: fmt.Sprint(v), Set: func(s *Scenario) { s.Opts.Seed = v }})
	}
	return AxisOf("seed", pts...)
}

func sweepBase() Scenario {
	return Scenario{
		Name:     "grid",
		Topology: Testbed{},
		Parking:  Parking{Mode: sim.ParkEdge},
		Traffic:  Traffic{SendBps: 2e9},
		Opts:     RunOptions{Seed: 1, WarmupNs: 2e5, MeasureNs: 1e6},
	}
}

func TestSweepExpansion(t *testing.T) {
	sw := Sweep{
		Base: sweepBase(),
		Axes: []Axis{
			SendGbpsAxis(2, 4, 6),
			ParkingAxis(sim.ParkNone, sim.ParkEdge),
		},
	}
	scns := sw.Expand()
	if len(scns) != 6 {
		t.Fatalf("expanded %d points, want 6", len(scns))
	}
	// Last axis varies fastest.
	if scns[0].Parking.Mode != sim.ParkNone || scns[1].Parking.Mode != sim.ParkEdge {
		t.Errorf("axis order wrong: %+v %+v", scns[0].Parking, scns[1].Parking)
	}
	if scns[0].Traffic.SendBps != 2e9 || scns[2].Traffic.SendBps != 4e9 {
		t.Errorf("rate axis wrong: %v %v", scns[0].Traffic.SendBps, scns[2].Traffic.SendBps)
	}
	if want := "grid[send_gbps=4 parking=baseline]"; scns[2].Name != want {
		t.Errorf("point name = %q, want %q", scns[2].Name, want)
	}
}

func TestRunSweepGrid(t *testing.T) {
	sw := Sweep{
		Base: sweepBase(),
		Axes: []Axis{
			SendGbpsAxis(2, 11),
			ParkingAxis(sim.ParkNone, sim.ParkEdge),
		},
	}
	rep, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 || !reflect.DeepEqual(rep.Shape, []int{2, 2}) {
		t.Fatalf("report shape: %+v", rep.Shape)
	}
	for i, pt := range rep.Points {
		if pt.Report == nil {
			t.Fatalf("point %d unrun: %+v", i, pt)
		}
	}
	// Indexing: At(i, j) maps to the right labels.
	pt := rep.At(1, 0)
	if pt.Labels[0] != "11" || pt.Labels[1] != "baseline" {
		t.Errorf("At(1,0) labels = %v", pt.Labels)
	}
	// Directional sanity at 11G on a 10GbE link: parking beats baseline.
	base, pp := rep.At(1, 0).Report, rep.At(1, 1).Report
	if pp.GoodputGbps <= base.GoodputGbps {
		t.Errorf("parking %.3f <= baseline %.3f at 11G", pp.GoodputGbps, base.GoodputGbps)
	}
}

// atProcs runs sw with GOMAXPROCS, and so the sweep's worker count, set
// to procs.
func atProcs(t *testing.T, procs int, sw Sweep) *SweepReport {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunSweepDeterministic: the same sweep run with different worker
// counts produces identical reports (each point is an independent
// seeded simulation).
func TestRunSweepDeterministic(t *testing.T) {
	sw := Sweep{Base: sweepBase(), Axes: []Axis{SendGbpsAxis(2, 4), seeds(1, 2)}}
	if a, b := atProcs(t, 1, sw), atProcs(t, 4, sw); !reflect.DeepEqual(a, b) {
		t.Error("sweep results depend on worker count")
	}
}

// TestRunSweepInvalidPoint: a bad point carries its error; good points
// still run.
func TestRunSweepInvalidPoint(t *testing.T) {
	base := sweepBase()
	bad := AxisPoint{Label: "bad", Set: func(s *Scenario) { s.Topology = LeafSpine{Leaves: 4, Spines: 3} }}
	ok := AxisPoint{Label: "ok", Set: func(s *Scenario) {}}
	rep, err := RunSweep(context.Background(), Sweep{
		Base: base,
		Axes: []Axis{AxisOf("variant", bad, ok)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points[0].Err == "" || !strings.Contains(rep.Points[0].Err, "merge port") {
		t.Errorf("bad point error: %q", rep.Points[0].Err)
	}
	if rep.Points[1].Report == nil {
		t.Error("good point did not run")
	}
}

// TestRunSweepCancellation is the redesign's cancellation contract: a
// canceled context makes a large sweep return promptly, aborting
// simulations mid-run, with no leaked worker goroutines.
func TestRunSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	base := sweepBase()
	// Long windows: a single point takes seconds — cancellation must cut
	// into the middle of a simulation, not wait for point boundaries.
	base.Opts.WarmupNs = 50e6
	base.Opts.MeasureNs = 500e6
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	rep, err := RunSweep(ctx, Sweep{
		Base: base,
		Axes: []Axis{SendGbpsAxis(2, 4, 6, 8, 10, 12), seeds(1, 2, 3, 4)},
	})
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Points) != 24 {
		t.Fatalf("partial report missing: %+v", rep)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %s; engine cancel hook not honored", elapsed)
	}
	for _, pt := range rep.Points {
		if pt.Report != nil {
			t.Error("canceled sweep returned a completed point (windows were chosen to outlast the cancel)")
			break
		}
	}

	// Workers must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestRunCanceledContext: an already-canceled context never starts the
// simulation.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, sweepBase().With(func(s *Scenario) {
		s.Opts.MeasureNs = 10e9 // would take minutes if it ran
	}))
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("canceled run did not return promptly")
	}
}

// TestRunDeadlineContext: a deadline that expires mid-simulation aborts
// the run.
func TestRunDeadlineContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	sc := sweepBase().With(func(s *Scenario) {
		s.Opts.WarmupNs = 50e6
		s.Opts.MeasureNs = 2e9 // would take many seconds
	})
	start := time.Now()
	_, err := Run(ctx, sc)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("deadline abort not prompt")
	}
}

// TestCoresAxisTestbed: the core count reaches a topology that resolves
// an unset server to the default model, one per-core record per core.
func TestCoresAxisTestbed(t *testing.T) {
	rep, err := RunSweep(context.Background(), Sweep{Base: sweepBase(), Axes: []Axis{CoresAxis(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range rep.Points {
		if pt.Report == nil {
			t.Fatalf("point %d: %s", i, pt.Err)
		}
		if n := len(pt.Report.Testbed.PerCore); n != i+1 {
			t.Errorf("cores=%s: %d per-core records, want %d", pt.Labels[0], n, i+1)
		}
	}
}

func TestAxisHelpers(t *testing.T) {
	s := sweepBase()
	PacketSizeAxis(512).Points[0].Set(&s)
	if s.Traffic.Dist == nil {
		t.Error("size axis did not set dist")
	}
	CoresAxis(4).Points[0].Set(&s)
	if s.Server.Cores != 4 {
		t.Error("cores axis")
	}
}

// TestEach pins the one worker pool: every index runs exactly once; after
// an fn fails no further index starts and Each returns that error (one
// worker makes the cut exact); a canceled ctx starts nothing and Each
// returns ctx.Err().
func TestEach(t *testing.T) {
	t.Run("every index once", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		var hits [1000]atomic.Int32
		if err := Each(context.Background(), len(hits), func(i int) error { hits[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("index %d ran %d times", i, n)
			}
		}
	})
	t.Run("first error stops", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		boom := errors.New("boom")
		var ran []int
		err := Each(context.Background(), 10, func(i int) error {
			ran = append(ran, i)
			if i == 3 {
				return boom
			}
			return nil
		})
		if err != boom || !reflect.DeepEqual(ran, []int{0, 1, 2, 3}) {
			t.Errorf("err = %v, ran %v; want boom after [0 1 2 3]", err, ran)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int32
		err := Each(ctx, 10, func(int) error { ran.Add(1); return nil })
		if err != context.Canceled || ran.Load() != 0 {
			t.Errorf("err = %v after %d calls; want context.Canceled after none", err, ran.Load())
		}
	})
}
