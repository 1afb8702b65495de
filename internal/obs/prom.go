package obs

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): families sorted, HELP/TYPE
// emitted once per family, histograms as cumulative _bucket/_sum/
// _count series with an `le` label merged into any inline label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.family != lastFamily {
			lastFamily = m.family
			bw.WriteString("# HELP ")
			bw.WriteString(m.family)
			bw.WriteByte(' ')
			bw.WriteString(m.help)
			bw.WriteString("\n# TYPE ")
			bw.WriteString(m.family)
			switch m.kind {
			case kindCounter:
				bw.WriteString(" counter\n")
			case kindGauge:
				bw.WriteString(" gauge\n")
			case kindHistogram:
				bw.WriteString(" histogram\n")
			}
		}
		switch m.kind {
		case kindCounter:
			bw.WriteString(m.name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(m.readU(), 10))
			bw.WriteByte('\n')
		case kindGauge:
			bw.WriteString(m.name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(m.readF(), 'g', -1, 64))
			bw.WriteByte('\n')
		case kindHistogram:
			writePromHistogram(bw, m)
		}
	}
	return bw.Flush()
}

// writePromHistogram emits one histogram's cumulative bucket series.
// Buckets print up to the highest occupied index plus the +Inf bound.
func writePromHistogram(bw *bufio.Writer, m *metric) {
	top := -1
	for i := 0; i < numBuckets; i++ {
		if m.hist.buckets[i].Load() > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += m.hist.buckets[i].Load()
		writeBucketLine(bw, m, strconv.FormatUint(bucketMax(i), 10), cum)
	}
	writeBucketLine(bw, m, "+Inf", m.hist.Count())
	bw.WriteString(m.family)
	bw.WriteString("_sum")
	writeLabels(bw, m.labels)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(m.hist.Sum(), 10))
	bw.WriteByte('\n')
	bw.WriteString(m.family)
	bw.WriteString("_count")
	writeLabels(bw, m.labels)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(m.hist.Count(), 10))
	bw.WriteByte('\n')
}

func writeBucketLine(bw *bufio.Writer, m *metric, le string, cum uint64) {
	bw.WriteString(m.family)
	bw.WriteString("_bucket{")
	if m.labels != "" {
		bw.WriteString(m.labels)
		bw.WriteByte(',')
	}
	bw.WriteString(`le="`)
	bw.WriteString(le)
	bw.WriteString(`"} `)
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')
}

func writeLabels(bw *bufio.Writer, labels string) {
	if labels == "" {
		return
	}
	bw.WriteByte('{')
	bw.WriteString(labels)
	bw.WriteByte('}')
}

// Serve binds addr and serves the registry at GET /metrics in the text
// exposition format, in the background (the ppswitchd/ppnf -metrics
// endpoints), returning the bound address. Binding before returning means
// a bad address fails at startup, not silently mid-run.
func (r *Registry) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	// The server lives as long as the process and nothing closes ln: a
	// scrape that fails is the scraper's to report.
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr(), nil
}
