package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values when
// len(xs) is even), 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance procedure in the README and noise.json are defined by. With
// fewer than two samples both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i of 4
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median: the run-to-run spread every bound is judged against.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// highPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and which percentile that is (0 when xs
// is too short to support any).
func highPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 10 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return s[idx], 100 * float64(idx+1) / float64(n)
}
