package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program: a probe batch, or one phase of a dataplane burst.
type span struct {
	Name   string
	Start  int64 // ns since processStart
	End    int64
	Parent int32 // index of the enclosing span, -1 at the root
}

// spanLog keeps a workload's spans in memory until the run ends. It holds
// at most max spans: a two-million-frame dataplane pass would otherwise
// record half a million bursts, and the first few thousand already show
// the shape. Dropped counts what did not fit.
type spanLog struct {
	workload string
	spans    []span
	max      int
	dropped  uint64
}

var processStart = time.Now()

func sinceStart() int64 { return int64(time.Since(processStart)) }

func newSpanLog(workload string, max int) *spanLog {
	return &spanLog{workload: workload, max: max, spans: make([]span, 0, max)}
}

// add records a finished span and returns its index (-1 when the log is
// full or nil, which children then carry as "no parent").
func (l *spanLog) add(name string, start, end int64, parent int32) int32 {
	if l == nil {
		return -1
	}
	if len(l.spans) >= l.max {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent})
	return int32(len(l.spans) - 1)
}

// chromeEvent is one Chrome trace-event ("X" complete events only), the
// format Perfetto and chrome://tracing load and internal/obs also writes.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvents renders the log with the workload as the process: pid is
// the workload's index, tid 0 holds root spans and tid 1 their children,
// so nested spans stack the way the viewer expects.
func (l *spanLog) chromeEvents(pid int) []chromeEvent {
	evs := make([]chromeEvent, 0, len(l.spans)+1)
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": l.workload, "dropped_spans": l.dropped},
	})
	for i, s := range l.spans {
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": l.workload},
		}
		if s.Parent >= 0 {
			ev.Tid = 1
		}
		evs = append(evs, ev)
	}
	return evs
}

func writeChromeTrace(path string, evs []chromeEvent) error {
	data, err := json.Marshal(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readChromeTrace loads the events of a trace written by writeChromeTrace
// (the all-workloads mode merges its children's files into one).
func readChromeTrace(path string) ([]chromeEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t chromeTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	return t.TraceEvents, nil
}
