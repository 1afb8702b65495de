// Package sim is the discrete-event network simulator that reproduces the
// paper's testbed: links with serialization and propagation delay, finite
// NIC and switch queues, a PCIe bus model, and an NF-server timing model,
// all wrapped around the byte-accurate dataplane of internal/core and the
// behavioural NFs of internal/nf.
//
// Time is int64 nanoseconds. Every topology runs on one engine, which is
// single-threaded and deterministic: identical configurations and seeds
// produce identical results.
//
// A run is described by sections (sections.go): each is declared there,
// defaulted by its topology's Resolve and validated by its Validate, and
// the runners take them as they are.
package sim

// Engine is a discrete-event executor.
//
// The event queue is a timing wheel (wheel.go): O(1) amortized insert and
// extract for the near-horizon events that dominate — link serialization,
// switch traversal, server stations — with a hand-rolled 4-ary heap as
// the overflow level for far-future timers. Events are pointer-free
// (at, seq, slot) nodes; their closures live in a free-listed slot table
// instead, written exactly once per event, so neither bucket appends nor
// heap sifts trigger GC write barriers.
type Engine struct {
	now   int64
	seq   uint64
	queue timeWheel
	fns   []eventSlot
	free  []int32

	// nexec counts events executed over the engine's lifetime (the
	// observability layer's events-total metric; one integer increment
	// per event whether or not anything reads it).
	nexec uint64

	// Cancel, when non-nil, is polled every cancelStride executed events
	// during Run; once it returns true the run stops between events and
	// Run returns early. The scenario layer binds it to a context so a
	// canceled sweep abandons a simulation mid-run instead of draining
	// the full event timeline. A nil Cancel (every preset default) costs
	// one predictable branch per event and changes no event ordering.
	Cancel func() bool
}

// cancelStride is how many executed events run between Cancel polls
// (events popped and dispatched, not loop iterations — an idle peek at
// the Run boundary does not count): rare enough to stay off the profile,
// frequent enough that a canceled multi-second run stops within
// microseconds of real time.
const cancelStride = 4096

// eventSlot holds one scheduled event's payload: either a plain closure
// (fn non-nil) or a pre-bound parcel handler (pfn + p).
type eventSlot struct {
	fn  func()
	pfn func(Parcel)
	p   Parcel
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.queue.init(true)
	return e
}

// Now returns the current simulation time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Schedule runs fn after delay nanoseconds (a negative delay is now).
func (e *Engine) Schedule(delay int64, fn func()) { e.ScheduleAt(e.now+delay, fn) }

// ScheduleAt runs fn at absolute time t (clamped to now).
func (e *Engine) ScheduleAt(t int64, fn func()) {
	slot := e.alloc()
	e.fns[slot].fn = fn
	e.push(t, slot)
}

// ScheduleParcel runs fn(p) after delay nanoseconds. Unlike Schedule with
// a closure capturing p, the four-word parcel is copied into the event
// slot and fn is a pre-bound handler, so per-packet-hop scheduling
// allocates nothing.
func (e *Engine) ScheduleParcel(delay int64, fn func(Parcel), p Parcel) {
	e.ScheduleParcelAt(e.now+delay, fn, p)
}

// ScheduleParcelAt runs fn(p) at absolute time t (clamped to now).
//
//pp:zeroalloc
func (e *Engine) ScheduleParcelAt(t int64, fn func(Parcel), p Parcel) {
	slot := e.alloc()
	ev := &e.fns[slot]
	ev.pfn, ev.p = fn, p
	e.push(t, slot)
}

// push queues slot's event at time t (clamped to now), after every event
// already scheduled for t.
func (e *Engine) push(t int64, slot int32) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(node{at: t, seq: e.seq, slot: slot}, e.now)
}

// alloc returns a free slot for the caller to fill: its fn is nil, its pfn
// and parcel are whatever its last event left. The table grows to the peak
// in-flight event count, then recycles.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	e.fns = append(e.fns, eventSlot{})
	return int32(len(e.fns) - 1)
}

// Run executes events in timestamp order until the queue drains or the
// clock passes until.
func (e *Engine) Run(until int64) {
	var executed uint
	for {
		ev, ok := e.queue.popLE(until)
		if !ok {
			break
		}
		slot := &e.fns[ev.slot]
		fn, pfn, p := slot.fn, slot.pfn, slot.p
		// Only a closure is dropped from the freed slot (it may capture
		// anything). A stale parcel and its handler — a pooled packet, a
		// link's or station's pre-bound method — outlive the slot anyway,
		// and leaving them spares every parcel event a second slot write.
		slot.fn = nil
		e.free = append(e.free, ev.slot)
		e.now = ev.at
		e.nexec++
		if fn == nil {
			pfn(p)
		} else {
			fn()
		}
		if e.Cancel != nil {
			if executed++; executed%cancelStride == 0 && e.Cancel() {
				return
			}
		}
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of queued events (for tests).
func (e *Engine) Pending() int { return e.queue.len() }

// Executed returns the number of events the engine has run so far.
// Only meaningful from the engine's own goroutine or after Run
// returns (metric snapshots read it post-run).
func (e *Engine) Executed() uint64 { return e.nexec }

// node is one queued event: its firing time, a FIFO tie-break for
// simultaneous events, and the slot of its closure in Engine.fns. Nodes
// are pointer-free so neither wheel appends nor heap sifts trigger GC
// write barriers.
type node struct {
	at   int64
	seq  uint64
	slot int32
}

// nodeHeap is a 4-ary min-heap ordered by (at, seq) — the timing wheel's
// overflow level, and the whole queue of the heap-only engine the tests
// keep as a reference (their NewEngineHeap). The wider fan-out halves the
// tree depth of the binary variant — fewer sift levels and swaps per
// operation, and children share cache lines.
type nodeHeap []node

const heapArity = 4

func (h nodeHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *nodeHeap) push(n node) {
	q := append(*h, n)
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *nodeHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	// Sift down.
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		child := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, child) {
				child = c
			}
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	*h = q
}
