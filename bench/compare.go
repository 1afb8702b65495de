package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// hostInfo is the machine a result was recorded on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// workloadResult is one workload's two passes.
type workloadResult struct {
	Name   string      `json:"name"`
	Dark   *passResult `json:"dark"`
	Traced *passResult `json:"traced,omitempty"`
}

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Schema    int              `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *resultFile) dark(workload string) *passResult {
	for _, w := range r.Workloads {
		if w.Name == workload {
			return w.Dark
		}
	}
	return nil
}

// verdict judges one (workload, metric) pair: "unresolved" when either
// side's own spread (the quartiles of its within-run samples) is wider than
// the bound, so the runs cannot tell a change of that size from noise;
// "regressed" when the new value is worse than the old by more than the
// bound; "ok" otherwise.
func verdict(m metricDef, old, cur metricValue) string {
	worse := cur.Value - old.Value
	if m.better == higher {
		worse = -worse
	}
	for _, side := range []metricValue{old, cur} {
		if q1, q3 := quartiles(side.Samples); q3-q1 > m.allowance(side.Value) && m.bound > 0 {
			return "unresolved"
		}
	}
	if worse > m.allowance(old.Value)+1e-12 {
		return "regressed"
	}
	return "ok"
}

// compare prints one row per (workload, end-to-end metric) present in
// both files and reports whether any regressed. A value is the pass's median
// (best repetition for the two rates); the quartiles are those of its
// within-run samples, which for a best-of metric all lie on its slow side.
func compare(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readResult(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return false, err
	}
	if old.Host != cur.Host {
		fmt.Fprintf(w, "note: hosts differ (%+v vs %+v); host-time rows compare machines, not code\n", old.Host, cur.Host)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told value [q1, q3]\tnew value [q1, q3]\tdelta\tbound\tverdict")
	cell := func(v metricValue) string {
		q1, q3 := quartiles(v.Samples)
		return fmt.Sprintf("%.6g [%.6g, %.6g]", v.Value, q1, q3)
	}
	for _, wl := range workloads {
		o, c := old.dark(wl.name), cur.dark(wl.name)
		if o == nil || c == nil {
			continue
		}
		for _, m := range endToEnd {
			ov, ok1 := o.Metrics[m.name]
			cv, ok2 := c.Metrics[m.name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(m, ov, cv)
			regressed = regressed || v == "regressed"
			delta := "0"
			if ov.Value != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(cv.Value-ov.Value)/ov.Value)
			} else if cv.Value != 0 {
				delta = fmt.Sprintf("%+.6g", cv.Value)
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.bound)
			if m.floor > 0 {
				bound += fmt.Sprintf(" or %g", m.floor)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl.name, m.name, m.unit, cell(ov), cell(cv), delta, bound, v)
		}
	}
	return regressed, tw.Flush()
}
