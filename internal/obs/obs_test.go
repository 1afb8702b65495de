package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestBucketIdxMonotone(t *testing.T) {
	last := -1
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 100, 1000, 1 << 20, 1 << 40, math.MaxUint64} {
		idx := bucketIdx(v)
		if idx < last {
			t.Fatalf("bucketIdx(%d) = %d < previous %d", v, idx, last)
		}
		last = idx
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range [0,%d)", v, idx, numBuckets)
		}
		if max := bucketMax(idx); v > max {
			t.Fatalf("value %d above its bucket max %d (idx %d)", v, max, idx)
		}
		if idx > 0 {
			if prevMax := bucketMax(idx - 1); v <= prevMax {
				t.Fatalf("value %d should be in bucket %d (max %d), landed in %d", v, idx-1, prevMax, idx)
			}
		}
	}
	if got := bucketIdx(math.MaxUint64); got != numBuckets-1 {
		t.Fatalf("max value bucket = %d, want %d", got, numBuckets-1)
	}
}

func TestBucketBoundsExact(t *testing.T) {
	// The first 2^subBits buckets are exact.
	for v := uint64(0); v < 1<<subBits; v++ {
		if idx := bucketIdx(v); uint64(idx) != v {
			t.Fatalf("bucketIdx(%d) = %d, want exact", v, idx)
		}
	}
	// Every bucket boundary is tight: max+1 lands in the next bucket.
	for idx := 0; idx < 60; idx++ {
		max := bucketMax(idx)
		if bucketIdx(max) != idx {
			t.Fatalf("bucketMax(%d) = %d maps to bucket %d", idx, max, bucketIdx(max))
		}
		if bucketIdx(max+1) != idx+1 {
			t.Fatalf("bucketMax(%d)+1 = %d maps to bucket %d, want %d", idx, max+1, bucketIdx(max+1), idx+1)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h := &Histogram{}
	for _, v := range []uint64{1, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 107 {
		t.Fatalf("count/sum = %d/%d, want 4/107", h.Count(), h.Sum())
	}
	var nilH *Histogram
	nilH.Observe(7) // must not panic
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("pp_b_total", "b", func() uint64 { return 2 })
	r.Counter("pp_a_total", "a", func() uint64 { return 1 })
	r.Gauge("pp_g", "g", func() float64 { return 0.5 })
	h := r.Histogram("pp_h", "h")
	h.Observe(3)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "pp_a_total" || s.Counters[1].Value != 2 {
		t.Fatalf("counters not sorted/read: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 0.5 {
		t.Fatalf("gauges: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 || len(s.Histograms[0].Buckets) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	if s.Histograms[0].Buckets[0].Max != 3 {
		t.Fatalf("bucket max = %d, want 3", s.Histograms[0].Buckets[0].Max)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`pp_splits_total{switch="leaf0"}`, "splits per switch", func() uint64 { return 7 })
	r.Counter(`pp_splits_total{switch="leaf1"}`, "splits per switch", func() uint64 { return 9 })
	r.Gauge("pp_occupancy", "slots in use", func() float64 { return 12 })
	h := r.Histogram(`pp_burst_frames{switch="leaf0"}`, "burst sizes")
	h.Observe(1)
	h.Observe(4)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP pp_splits_total splits per switch\n",
		"# TYPE pp_splits_total counter\n",
		`pp_splits_total{switch="leaf0"} 7` + "\n",
		`pp_splits_total{switch="leaf1"} 9` + "\n",
		"# TYPE pp_occupancy gauge\n",
		"pp_occupancy 12\n",
		"# TYPE pp_burst_frames histogram\n",
		`pp_burst_frames_bucket{switch="leaf0",le="1"} 1` + "\n",
		`pp_burst_frames_bucket{switch="leaf0",le="4"} 2` + "\n",
		`pp_burst_frames_bucket{switch="leaf0",le="+Inf"} 2` + "\n",
		`pp_burst_frames_sum{switch="leaf0"} 5` + "\n",
		`pp_burst_frames_count{switch="leaf0"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family, not per labeled series.
	if strings.Count(out, "# TYPE pp_splits_total") != 1 {
		t.Fatalf("TYPE repeated per series:\n%s", out)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("pp_up", "always one", func() uint64 { return 1 })
	if _, err := r.Serve("bad::addr::x"); err == nil {
		t.Fatal("a bad address was accepted")
	}
	addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "pp_up 1\n") {
		t.Fatalf("body %q", body)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	tr := NewTrace(4)
	r := tr.Recorder()
	for i := 0; i < 10; i++ {
		r.Emit(Event{At: int64(i)})
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total/dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}
	evs := r.events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.At != int64(6+i) {
			t.Fatalf("events[%d].At = %d, want %d (oldest evicted first)", i, e.At, 6+i)
		}
	}
	var nilRec *Recorder
	nilRec.Emit(Event{}) // must not panic
}

func TestWriteChromeSchema(t *testing.T) {
	tr := NewTrace(0)
	r := tr.Recorder()
	leaf := tr.Intern("leaf0")
	ctrlTrack := tr.Intern("controller")
	reason := tr.Intern("queue overflow")
	r.Emit(Event{At: 1500, Track: leaf, Kind: KindInject, ID: 1500, Arg: 1024})
	r.Emit(Event{At: 2750, Track: leaf, Kind: KindDrop, Name: reason, ID: 1500})
	r.Emit(Event{At: 3000, Track: ctrlTrack, Kind: KindDecision, Name: tr.Intern("backoff"), ID: int64(leaf)})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *float64        `json:"ts"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// 2 track-name metadata events + 3 instants.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(doc.TraceEvents), buf.String())
	}
	meta, inst := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "" || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing ph/pid/tid: %+v", e)
		}
		switch e.Ph {
		case "M":
			meta++
		case "i":
			inst++
			if e.Ts == nil || e.S != "t" {
				t.Fatalf("instant missing ts or thread scope: %+v", e)
			}
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if meta != 2 || inst != 3 {
		t.Fatalf("meta/instants = %d/%d, want 2/3", meta, inst)
	}
	if !strings.Contains(buf.String(), `"name":"drop: queue overflow"`) {
		t.Fatalf("drop reason not in trace:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"target":"leaf0"`) {
		t.Fatalf("decision target not resolved:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"ts":1.500`) {
		t.Fatalf("ts not microseconds with fixed precision:\n%s", buf.String())
	}
}

// TestWriteChromeInternOrderInvariant pins the determinism mechanism:
// the same logical events produce identical bytes even when intern ids
// and the emission order of simultaneous events differ.
func TestWriteChromeInternOrderInvariant(t *testing.T) {
	build := func(flip bool) []byte {
		tr := NewTrace(0)
		var a, b uint16
		if flip {
			b, a = tr.Intern("spine0"), tr.Intern("leaf0")
		} else {
			a, b = tr.Intern("leaf0"), tr.Intern("spine0")
		}
		evs := []Event{
			{At: 10, Track: a, Kind: KindInject, ID: 10},
			{At: 10, Track: b, Kind: KindSink, ID: 7, Arg: 3},
		}
		if flip {
			evs[0], evs[1] = evs[1], evs[0]
		}
		for _, e := range evs {
			tr.Recorder().Emit(e)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatalf("trace bytes depend on intern/recorder order:\n%s\nvs\n%s", build(false), build(true))
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	tr := NewTrace(1 << 10)
	r := tr.Recorder()
	for i := 0; i < 1<<10; i++ { // fill to cap: steady state overwrites in place
		r.Emit(Event{At: int64(i)})
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(Event{At: 1, Track: 1, Kind: KindPark, ID: 2, Arg: 3})
	}); n != 0 {
		t.Fatalf("Recorder.Emit allocates %v/op", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() { nilRec.Emit(Event{}) }); n != 0 {
		t.Fatalf("nil Recorder.Emit allocates %v/op", n)
	}
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(77) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(77) }); n != 0 {
		t.Fatalf("nil Histogram.Observe allocates %v/op", n)
	}
}

func BenchmarkRecorderEmit(b *testing.B) {
	tr := NewTrace(1 << 16)
	r := tr.Recorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{At: int64(i), Track: 1, Kind: KindPark, ID: int64(i)})
	}
}

func BenchmarkRecorderEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{At: int64(i)})
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}
