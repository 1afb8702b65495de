package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// resolvedEvent is an Event with every intern id replaced by its
// string, so ordering and output never depend on interning order.
type resolvedEvent struct {
	at     int64
	track  string
	kind   EventKind
	name   string // drop reason or decision kind; "" otherwise
	target string // decision target; "" otherwise
	id     int64
	arg    int64
}

// resolve unwraps the recorder ring and resolves intern ids.
func (t *Trace) resolve() []resolvedEvent {
	var out []resolvedEvent
	for _, e := range t.rec.events() {
		re := resolvedEvent{
			at: e.At, track: t.lookup(e.Track), kind: e.Kind,
			name: t.lookup(e.Name), id: e.ID, arg: e.Arg,
		}
		if e.Kind == KindDecision {
			re.target = t.lookup(uint16(e.ID))
			re.id = 0
		}
		out = append(out, re)
	}
	// Total order over resolved fields only, so the bytes depend neither
	// on intern ids nor on the emission order of simultaneous events.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.track != b.track {
			return a.track < b.track
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.name != b.name {
			return a.name < b.name
		}
		if a.target != b.target {
			return a.target < b.target
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return a.arg < b.arg
	})
	return out
}

// WriteChrome exports the trace as Chrome trace-event JSON (the
// "JSON Array Format" Perfetto loads): one metadata event naming each
// track, then every recorded event as a thread-scoped instant.
// Timestamps are simulation nanoseconds rendered as microseconds with
// fixed three-digit precision, so output is byte-stable.
func (t *Trace) WriteChrome(w io.Writer) error {
	events := t.resolve()

	// Tracks sorted by name take tids 1..n; the pid is constant.
	trackSet := make(map[string]int)
	for _, e := range events {
		trackSet[e.track] = 0
	}
	tracks := make([]string, 0, len(trackSet))
	for name := range trackSet { // key collection; sorted just below
		tracks = append(tracks, name)
	}
	sort.Strings(tracks)
	for i, name := range tracks {
		trackSet[name] = i + 1
	}

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, name := range tracks {
		writeSep(bw, &first)
		bw.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(trackSet[name]))
		bw.WriteString(`,"args":{"name":`)
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(`}}`)
	}
	for _, e := range events {
		writeSep(bw, &first)
		bw.WriteString(`{"name":`)
		bw.WriteString(strconv.Quote(displayName(e)))
		bw.WriteString(`,"ph":"i","s":"t","ts":`)
		// ts is in microseconds; 3 decimal digits keep nanosecond
		// precision without float formatting ambiguity.
		bw.WriteString(strconv.FormatFloat(float64(e.at)/1e3, 'f', 3, 64))
		bw.WriteString(`,"pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(trackSet[e.track]))
		bw.WriteString(`,"args":{`)
		if e.kind == KindDecision {
			bw.WriteString(`"target":`)
			bw.WriteString(strconv.Quote(e.target))
		} else {
			bw.WriteString(`"id":`)
			bw.WriteString(strconv.FormatInt(e.id, 10))
		}
		bw.WriteString(`,"arg":`)
		bw.WriteString(strconv.FormatInt(e.arg, 10))
		bw.WriteString(`}}`)
	}
	bw.WriteString(`]}`)
	bw.WriteByte('\n')
	return bw.Flush()
}

func writeSep(bw *bufio.Writer, first *bool) {
	if *first {
		*first = false
		return
	}
	bw.WriteByte(',')
}

// displayName is the event label shown in the Perfetto timeline.
func displayName(e resolvedEvent) string {
	if e.name == "" {
		return e.kind.String()
	}
	return e.kind.String() + ": " + e.name
}
