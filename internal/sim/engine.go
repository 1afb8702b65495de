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
// defaulted by its topology's Resolve and validated by its Validate. The
// topology's Graph builds the deployment from them (graph.go); Run, the
// one runner (run.go), simulates and measures any graph; and the
// topology's View projects that Outcome into its report.
package sim

// Engine is a discrete-event executor.
//
// The event queue is a timing wheel (wheel.go): O(1) amortized insert and
// extract for the near-horizon events that dominate — link serialization,
// switch traversal, server stations — with a hand-rolled 4-ary heap as
// the overflow level for far-future timers. Each scheduled event is one
// 64-byte record (event) in the queue's arena: Schedule fills it once and
// Run reads and frees it once. Wheel buckets link records by index and
// the overflow heap sorts pointer-free (at, seq, slot) nodes, so neither
// bucket appends nor heap sifts trigger GC write barriers.
type Engine struct {
	now   int64
	seq   uint64
	queue timeWheel

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

// event is one scheduled event's record: its firing time, the next record
// of its wheel bucket or, once fired, of the free list (0 ends a list;
// arena slot 0 is never used), and its payload — either a plain closure
// (fn non-nil) or a pre-bound parcel handler (pfn + p). It fills one
// cache line.
type event struct {
	at   int64
	next int32
	fn   func()
	pfn  func(Parcel)
	p    Parcel
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
func (e *Engine) ScheduleAt(t int64, fn func()) { e.push(t).fn = fn }

// ScheduleParcel runs fn(p) after delay nanoseconds. Unlike Schedule with
// a closure capturing p, the four-word parcel is copied into the event
// record and fn is a pre-bound handler, so per-packet-hop scheduling
// allocates nothing.
func (e *Engine) ScheduleParcel(delay int64, fn func(Parcel), p Parcel) {
	e.ScheduleParcelAt(e.now+delay, fn, p)
}

// ScheduleParcelAt runs fn(p) at absolute time t (clamped to now).
//
//pp:zeroalloc
func (e *Engine) ScheduleParcelAt(t int64, fn func(Parcel), p Parcel) {
	r := e.push(t)
	r.pfn, r.p = fn, p
}

// push queues a fresh record at time t (clamped to now), after every event
// already scheduled for t, and returns it for the caller to fill in its
// payload. Its fn is nil; its pfn and parcel are whatever its last event
// left.
func (e *Engine) push(t int64) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	return e.queue.push(t, e.seq, e.now)
}

// Run executes events in timestamp order until the queue drains or the
// clock passes until.
func (e *Engine) Run(until int64) {
	var executed uint
	for {
		i, ok := e.queue.popLE(until)
		if !ok {
			break
		}
		r := &e.queue.events[i]
		fn, pfn, p := r.fn, r.pfn, r.p
		e.now = r.at
		// Only a closure is dropped from the freed record (it may capture
		// anything). A stale parcel and its handler — a pooled packet, a
		// link's or station's pre-bound method — outlive the record anyway,
		// and leaving them saves every event two stores.
		r.fn, r.next = nil, e.queue.free
		e.queue.free = i
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

// node is one overflow-heap entry: its event's firing time, a FIFO
// tie-break for simultaneous events, and the arena slot of its record.
// Nodes are pointer-free so heap sifts trigger no GC write barriers.
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
