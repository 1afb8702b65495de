// Package stats provides the measurement primitives used across the
// PayloadPark reproduction: monotonic counters, rate meters, running
// summaries, histograms, and empirical CDFs.
//
// All types are deliberately simple and allocation-light; the discrete-event
// simulator updates them on every packet event, so they sit on the hot path
// of every benchmark.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically increasing event counter. It is a plain
// integer, so a record of counters copies, sums and marshals as a value.
//
// The zero value is ready to use. Counter is not safe for concurrent use;
// the simulator is single-threaded by design (see internal/sim).
type Counter uint64

// Inc adds one to the counter.
func (c *Counter) Inc() { *c++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { *c += Counter(delta) }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Summary accumulates a running mean/min/max over float64 observations;
// the mean updates incrementally (Welford) for numerical stability.
//
// The zero value is an empty summary.
type Summary struct {
	count uint64
	mean  float64
	min   float64
	max   float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.count++
	if s.count == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.mean += (v - s.mean) / float64(s.count)
}

// Count returns the number of samples observed.
func (s *Summary) Count() uint64 { return s.count }

// Mean returns the running mean, or 0 with no samples.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 { return s.max }

// String summarizes as "mean=… min=… max=… n=…".
func (s *Summary) String() string {
	return fmt.Sprintf("mean=%.3f min=%.3f max=%.3f n=%d", s.Mean(), s.Min(), s.Max(), s.Count())
}

// Histogram is a fixed-bucket histogram over [0, +inf). Bucket boundaries
// are supplied at construction; values beyond the last boundary land in the
// overflow bucket.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of overflow
	counts []uint64  // len(bounds)+1, last is overflow
	total  uint64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. It panics if bounds is empty or not strictly ascending, since
// that is a programming error in the caller.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: NewHistogram requires at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: NewHistogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// ExponentialBounds returns n ascending bounds starting at start, each
// factor times the previous.
func ExponentialBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	// SearchFloat64s returns the first index with bounds[i] >= v; values
	// exactly on a bound belong to that bucket (upper bound inclusive).
	h.counts[i]++
	h.total++
}

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Quantile returns an upper-bound estimate for quantile q in [0,1] using
// bucket boundaries. With no samples it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // overflow: report last bound
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// CDF is an empirical cumulative distribution function built from discrete
// samples. It retains every distinct value, so it is intended for modest
// cardinality domains such as packet sizes.
//
// Queries (At, Quantile) run off a sorted-point cache rebuilt
// lazily after observations, so Observe stays a map increment (it sits on
// the traffic generator's per-packet path) and repeated queries cost a
// binary search instead of a full rescan.
type CDF struct {
	counts map[float64]uint64
	total  uint64

	// Sorted query cache: vals ascending, cum[i] = samples <= vals[i].
	// dirty marks it stale after an observation.
	vals  []float64
	cum   []uint64
	dirty bool
}

// NewCDF returns an empty empirical CDF.
func NewCDF() *CDF {
	return &CDF{counts: make(map[float64]uint64)}
}

// Observe records one sample.
func (c *CDF) Observe(v float64) {
	c.counts[v]++
	c.total++
	c.dirty = true
}

// rebuild refreshes the sorted query cache from the counts map.
func (c *CDF) rebuild() {
	if !c.dirty && len(c.vals) == len(c.counts) {
		return
	}
	c.vals = c.vals[:0]
	for v := range c.counts {
		c.vals = append(c.vals, v)
	}
	sort.Float64s(c.vals)
	c.cum = c.cum[:0]
	var cum uint64
	for _, v := range c.vals {
		cum += c.counts[v]
		c.cum = append(c.cum, cum)
	}
	c.dirty = false
}

// At returns P(X <= v).
func (c *CDF) At(v float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.rebuild()
	// First index with vals[i] > v; everything before it is <= v.
	i := sort.SearchFloat64s(c.vals, v)
	if i < len(c.vals) && c.vals[i] == v {
		i++
	}
	if i == 0 {
		return 0
	}
	return float64(c.cum[i-1]) / float64(c.total)
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum float64
	for x, n := range c.counts {
		sum += x * float64(n)
	}
	return sum / float64(c.total)
}

// Quantile returns the smallest observed value v with P(X <= v) >= q.
func (c *CDF) Quantile(q float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.rebuild()
	rank := q * float64(c.total)
	i := sort.Search(len(c.cum), func(i int) bool {
		return float64(c.cum[i]) >= rank
	})
	if i >= len(c.vals) {
		i = len(c.vals) - 1
	}
	return c.vals[i]
}

// RateMeter converts an event/byte count observed over a time window into
// a rate. Time is expressed in integer nanoseconds to match the simulator
// clock.
type RateMeter struct {
	startNs int64
	endNs   int64
	events  uint64
	units   float64 // e.g. bits
}

// NewRateMeter returns a meter whose window opens at startNs.
func NewRateMeter(startNs int64) *RateMeter {
	return &RateMeter{startNs: startNs, endNs: startNs}
}

// Record adds one event carrying the given number of units (bits, bytes…)
// at time nowNs. Events may arrive with equal timestamps.
func (r *RateMeter) Record(nowNs int64, units float64) {
	if nowNs > r.endNs {
		r.endNs = nowNs
	}
	r.events++
	r.units += units
}

// CloseAt extends the window to endNs even if no event arrived that late,
// so rates are not inflated by early termination.
func (r *RateMeter) CloseAt(endNs int64) {
	if endNs > r.endNs {
		r.endNs = endNs
	}
}

// WindowNs returns the observation window length in nanoseconds.
func (r *RateMeter) WindowNs() int64 { return r.endNs - r.startNs }

// UnitsPerSecond returns units/second over the window, or 0 for an empty window.
func (r *RateMeter) UnitsPerSecond() float64 {
	w := r.WindowNs()
	if w <= 0 {
		return 0
	}
	return r.units / (float64(w) / 1e9)
}

// EventsPerSecond returns events/second over the window.
func (r *RateMeter) EventsPerSecond() float64 {
	w := r.WindowNs()
	if w <= 0 {
		return 0
	}
	return float64(r.events) / (float64(w) / 1e9)
}

// Gbps interprets the accumulated units as bits and reports gigabits/second.
func (r *RateMeter) Gbps() float64 { return r.UnitsPerSecond() / 1e9 }

// Mpps reports millions of events (packets) per second.
func (r *RateMeter) Mpps() float64 { return r.EventsPerSecond() / 1e6 }
