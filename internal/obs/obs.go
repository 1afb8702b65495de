// Package obs is the runtime observability layer: a callback-driven
// metrics registry with Prometheus text exposition, and a packet-
// lifecycle flight recorder exporting Chrome trace-event JSON that
// loads in Perfetto.
//
// Everything here is off by default. The hot-path entry points
// (Recorder.Emit, Histogram.Observe) are nil-receiver safe and
// zero-alloc so instrumented code can keep a single untaken branch
// when observability is disabled.
//
// The flight recorder is keyed on simulation time, never wall clock:
// with one single-writer Recorder per trace and all ordering resolved
// against interned strings (not intern ids), an exported trace is
// byte-identical across runs of the same scenario and seed.
package obs

// EventKind classifies a flight-recorder event.
type EventKind uint8

const (
	// KindInject is a source handing a fresh packet to the fabric.
	KindInject EventKind = 1 + iota
	// KindPark is a payload split parked into a switch's table.
	KindPark
	// KindMerge is a parked payload merged back onto its header.
	KindMerge
	// KindEvict is a parked payload evicted (Arg counts the premature
	// share of the eviction delta).
	KindEvict
	// KindDrop is a packet dropped; Name interns the drop reason.
	KindDrop
	// KindConsume is a packet absorbed by an explicit-drop action.
	KindConsume
	// KindSink is a delivery at a sink; Arg is the end-to-end latency
	// in nanoseconds.
	KindSink
	// KindDecision is a ctrl.Controller decision; Name interns the
	// decision kind and ID interns the target.
	KindDecision
)

// String names the kind as it appears in exported traces.
func (k EventKind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindPark:
		return "park"
	case KindMerge:
		return "merge"
	case KindEvict:
		return "evict"
	case KindDrop:
		return "drop"
	case KindConsume:
		return "consume"
	case KindSink:
		return "sink"
	case KindDecision:
		return "decision"
	default:
		return "event"
	}
}

// Event is one flight-recorder record. At is simulation time in
// nanoseconds; ID carries the packet identity (its birth timestamp)
// or, for decisions, the interned target; Arg is a kind-specific
// payload (bytes, counts, latency). Track and Name are intern ids
// resolved against the owning Trace at export time.
type Event struct {
	At    int64
	ID    int64
	Arg   int64
	Track uint16
	Name  uint16
	Kind  EventKind
}

// DefaultEventCap is the recorder's ring capacity: a scenario's trace
// keeps the last DefaultEventCap events.
const DefaultEventCap = 1 << 20

// Recorder is a single-writer ring buffer of events, written by the
// engine goroutine of its trace's run; Emit is not safe for concurrent
// use, which is what keeps it zero-alloc and lock-free.
// The buffer grows geometrically until the configured cap, then
// overwrites the oldest events.
type Recorder struct {
	buf   []Event
	next  int    // overwrite cursor, used once len(buf) == max
	total uint64 // events ever emitted
	max   int
}

// Emit appends one event. Nil-receiver safe: instrumented code holds
// a single nil check per packet, not per field.
//
//pp:zeroalloc
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.total++
	if len(r.buf) < r.max {
		// Self-append grows the ring toward the configured cap; steady
		// state overwrites in place.
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Total is the number of events ever emitted.
func (r *Recorder) Total() uint64 { return r.total }

// Dropped is the number of events overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// events returns the buffered events in emission order.
func (r *Recorder) events() []Event {
	if r.next == 0 {
		return r.buf
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Trace owns the interner and the one recorder of a run. Interning
// happens at wiring time and on rare slow paths of the run's own
// goroutine; export reads the trace after the run.
type Trace struct {
	names []string
	idx   map[string]uint16
	rec   Recorder
}

// NewTrace builds an empty trace. eventCap bounds the recorder's ring;
// <= 0 selects DefaultEventCap.
func NewTrace(eventCap int) *Trace {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	return &Trace{
		names: []string{""}, // id 0 reserved: "no name"
		idx:   make(map[string]uint16),
		rec:   Recorder{max: eventCap},
	}
}

// Intern maps a string to a stable id for Event.Track/Event.Name.
// Intended for wiring time and for rare slow paths (new drop reasons),
// not per-packet calls.
func (t *Trace) Intern(s string) uint16 {
	if id, ok := t.idx[s]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, s)
	t.idx[s] = id
	return id
}

// lookup resolves an intern id (export path only).
func (t *Trace) lookup(id uint16) string {
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return ""
}

// Recorder returns the trace's recorder.
func (t *Trace) Recorder() *Recorder { return &t.rec }

// Total is the number of events emitted.
func (t *Trace) Total() uint64 { return t.rec.Total() }

// Dropped is the number of events lost to ring wrap-around: the export
// then holds only the newest events. Raise the event cap to keep them
// all.
func (t *Trace) Dropped() uint64 { return t.rec.Dropped() }
