package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-9 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("max = %v, want 9", got)
	}
	if s.Count() != 8 {
		t.Errorf("count = %d, want 8", s.Count())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty summary should report zeros, got %v", s.String())
	}
	s.Observe(3.5)
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single-sample summary wrong: %v", s.String())
	}
}

func TestSummaryMeanMatchesNaive(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		var sum float64
		ok := true
		for _, v := range vals {
			// Constrain to a sane range so the naive sum stays exact enough.
			v = math.Mod(v, 1e6)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Observe(v)
			sum += v
		}
		if s.Count() == 0 {
			return s.Mean() == 0
		}
		naive := sum / float64(s.Count())
		if math.Abs(naive-s.Mean()) > 1e-6*(1+math.Abs(naive)) {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramBuckets reads bucket placement back through Quantile:
// bounds are inclusive upper bounds, and the overflow bucket reports the
// last bound.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for _, v := range []float64{1, 10, 11, 25, 31, 99} {
		h.Observe(v)
	}
	// 1 and 10 land in <=10; 11 in <=20; 25 in <=30; 31 and 99 overflow.
	for _, c := range []struct{ q, want float64 }{{2.0 / 6, 10}, {3.0 / 6, 20}, {4.0 / 6, 30}, {5.0 / 6, 30}, {1, 30}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.3f) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Count() != 6 {
		t.Errorf("total = %d, want 6", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := NewHistogram(bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram([]float64{1})
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty quantile should be 0")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}

func TestCDFPointsAndQuantiles(t *testing.T) {
	c := NewCDF()
	for i := 0; i < 100; i++ {
		v := 1500.0
		if i < 30 {
			v = 64
		}
		c.Observe(v)
	}
	// The two steps: P(X <= 64) = 0.30, P(X <= 1500) = 1.
	if got := c.At(64); math.Abs(got-0.30) > 1e-9 {
		t.Errorf("At(64) = %v, want 0.30", got)
	}
	if got := c.At(1500); got != 1 {
		t.Errorf("At(1500) = %v, want 1", got)
	}
	if got := c.At(100); math.Abs(got-0.30) > 1e-9 {
		t.Errorf("At(100) = %v, want 0.30", got)
	}
	if got := c.Quantile(0.5); got != 1500 {
		t.Errorf("median = %v, want 1500", got)
	}
	wantMean := (64*30 + 1500*70) / 100.0
	if got := c.Mean(); math.Abs(got-wantMean) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF()
	if c.At(10) != 0 || c.Mean() != 0 || c.Quantile(0.5) != 0 {
		t.Errorf("empty CDF should report zeros")
	}
}

func TestCDFMonotonic(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewCDF()
		for _, v := range raw {
			c.Observe(float64(v % 2048))
		}
		last := 0.0
		for v := 0.0; v < 2048; v++ {
			p := c.At(v)
			if p < last {
				return false
			}
			last = p
		}
		return len(raw) == 0 || math.Abs(last-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateMeter(t *testing.T) {
	r := NewRateMeter(0)
	// 1000 packets of 1000 bits each over 1 ms => 1 Gbps, 1 Mpps.
	for i := 0; i < 1000; i++ {
		r.Record(int64(i+1)*1000, 1000) // each event 1 µs apart
	}
	if got := r.Gbps(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Gbps = %v, want 1.0", got)
	}
	if got := r.Mpps(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Mpps = %v, want 1.0", got)
	}
}

func TestRateMeterCloseAtExtendsWindow(t *testing.T) {
	r := NewRateMeter(0)
	r.Record(1000, 8000)
	r.CloseAt(8000) // extend from 1 µs to 8 µs
	if got := r.UnitsPerSecond(); math.Abs(got-1e9) > 1e-3 {
		t.Errorf("units/s = %v, want 1e9", got)
	}
	// CloseAt earlier than the last event must not shrink the window.
	r.CloseAt(10)
	if r.WindowNs() != 8000 {
		t.Errorf("window = %d, want 8000", r.WindowNs())
	}
}

func TestRateMeterEmptyWindow(t *testing.T) {
	r := NewRateMeter(100)
	if r.Gbps() != 0 || r.Mpps() != 0 {
		t.Errorf("empty meter should report 0 rates")
	}
}
