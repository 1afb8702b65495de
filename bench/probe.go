package main

import (
	"fmt"
	"runtime"
	"time"
)

// probe is one per-layer micro-measurement: run(n) makes n calls into a
// single layer and returns the time spent inside them. adapter.go builds
// the list; this file times it.
type probe struct {
	name  string
	unit  string // "ns" or "us" per call
	calls int    // calls per batch
	run   func(n int) (time.Duration, error)
}

// probeResult is one probe's outcome over its batches: per-call time as a
// median and the highest percentile the batch count supports, the number
// of batches, and allocations per call.
type probeResult struct {
	Unit        string  `json:"unit"`
	Median      float64 `json:"median"`
	High        float64 `json:"high"`
	HighPct     float64 `json:"high_pct"`
	N           int     `json:"n"`
	CallsPerN   int     `json:"calls_per_n"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

const (
	probeBatches      = 40
	probeBatchesQuick = 2
	probeQuickShrink  = 50 // -quick divides every probe's calls per batch by this
)

// runProbes times every probe: one untimed warm-up batch, then batches
// timed batches. Each batch is a span under one root span per probe.
func runProbes(ps []probe, quick bool, spans *spanLog) (map[string]probeResult, error) {
	batches := probeBatches
	if quick {
		batches = probeBatchesQuick
	}
	out := make(map[string]probeResult, len(ps))
	for _, p := range ps {
		calls := p.calls
		if quick {
			calls = max(2, calls/probeQuickShrink)
		}
		if _, err := p.run(calls); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		perUnit := 1.0 // ns
		if p.unit == "us" {
			perUnit = 1e3
		}
		samples := make([]float64, 0, batches)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := sinceStart()
		root := spans.add(p.name, start, start, -1)
		for b := 0; b < batches; b++ {
			t0 := sinceStart()
			d, err := p.run(calls)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			spans.add(p.name+".batch", t0, sinceStart(), root)
			samples = append(samples, float64(d)/float64(calls)/perUnit)
		}
		if root >= 0 {
			spans.spans[root].End = sinceStart()
		}
		runtime.ReadMemStats(&ms1)
		hi, pct := highPercentile(samples)
		out[p.name] = probeResult{
			Unit: p.unit, Median: median(samples), High: hi, HighPct: pct,
			N: batches, CallsPerN: calls,
			AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(batches*calls),
		}
	}
	return out, nil
}
