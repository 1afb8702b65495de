package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// bothEngines runs a subtest against the timing-wheel engine and the
// reference heap engine: the (at, seq) ordering contract belongs to the
// Engine API, not to whichever queue backs it.
func bothEngines(t *testing.T, f func(t *testing.T, mk func() *Engine)) {
	t.Run("wheel", func(t *testing.T) { f(t, NewEngine) })
	t.Run("heap", func(t *testing.T) { f(t, NewEngineHeap) })
}

// TestEngineFIFOSameTimestamp: events scheduled for the same instant fire
// in schedule order — the FIFO tie-break every golden relies on — across
// the wheel horizon and into the overflow level.
func TestEngineFIFOSameTimestamp(t *testing.T) {
	bothEngines(t, func(t *testing.T, mk func() *Engine) {
		// Timestamps inside the hot window, straddling it (far level),
		// and past the span (heap overflow), so pushes hit every level.
		for _, at := range []int64{0, 7, wheelSize - 1, wheelSize, wheelSize + 3, 10 * wheelSize, wheelSpan - 1, wheelSpan, wheelSpan + 5, 3 * wheelSpan} {
			e := mk()
			var got []int
			for id := 0; id < 64; id++ {
				id := id
				e.ScheduleAt(at, func() { got = append(got, id) })
			}
			e.Run(at)
			if len(got) != 64 {
				t.Fatalf("at=%d: fired %d of 64 events", at, len(got))
			}
			for id, g := range got {
				if g != id {
					t.Fatalf("at=%d: simultaneous events fired out of schedule order: %v", at, got)
				}
			}
		}
	})
}

// TestEngineSchedulePastClamps: ScheduleAt into the past fires at now —
// never before already-queued events of earlier timestamps, and after
// same-instant events scheduled first.
func TestEngineSchedulePastClamps(t *testing.T) {
	bothEngines(t, func(t *testing.T, mk func() *Engine) {
		e := mk()
		var got []string
		e.ScheduleAt(1000, func() {
			got = append(got, "a")
			e.ScheduleAt(200, func() {
				if e.Now() != 1000 {
					t.Errorf("past event fired at %d, want clamped to 1000", e.Now())
				}
				got = append(got, "past")
			})
			e.ScheduleAt(1000, func() { got = append(got, "b") })
			e.Schedule(-50, func() { got = append(got, "negative") })
		})
		e.ScheduleAt(1001, func() { got = append(got, "later") })
		e.Run(2000)
		want := []string{"a", "past", "b", "negative", "later"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("clamped events misordered: got %v want %v", got, want)
		}
	})
}

// TestEngineRunBoundary: Run(until) executes events at exactly until,
// leaves later events queued and undisturbed, and parks the clock at
// until; a later Run picks the leftovers up in order.
func TestEngineRunBoundary(t *testing.T) {
	bothEngines(t, func(t *testing.T, mk func() *Engine) {
		e := mk()
		var got []int64
		for _, at := range []int64{5, 10, 11, 40000, 10, 90000} {
			at := at
			e.ScheduleAt(at, func() { got = append(got, at) })
		}
		e.Run(10)
		if want := []int64{5, 10, 10}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Run(10) executed %v, want %v", got, want)
		}
		if e.Now() != 10 {
			t.Fatalf("clock at %d after Run(10)", e.Now())
		}
		if e.Pending() != 3 {
			t.Fatalf("%d events pending, want 3", e.Pending())
		}
		e.Run(1 << 40)
		want := []int64{5, 10, 10, 11, 40000, 90000}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resumed run misordered: got %v want %v", got, want)
		}
	})
}

// TestEngineFarSpanBoundary: with the clock parked mid-window, an event
// scheduled almost a full far span ahead lands in the window whose far
// bucket index wraps onto the clock's own — it must still fire after
// every nearer event, both when pushed directly and when it arrives via
// the heap->wheel migration path.
func TestEngineFarSpanBoundary(t *testing.T) {
	bothEngines(t, func(t *testing.T, mk func() *Engine) {
		near := int64(2*wheelSize + 50)  // window base+2
		far := int64(wheelSpan + 50)     // window base+farCount, within base+span of the mid-window clock
		later := int64(2*wheelSpan + 50) // heap overflow, beyond any wheel level
		e := mk()
		var got []int64
		rec := func() { got = append(got, e.Now()) }
		e.ScheduleAt(100, rec) // park the clock mid-window
		e.Run(100)
		for _, at := range []int64{later, far, near} {
			e.ScheduleAt(at, rec)
		}
		e.Run(1 << 40)
		want := []int64{100, near, far, later}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("span-boundary events misordered: got %v want %v", got, want)
		}

		// Same shape through the heap->wheel migration path: all three
		// events park in the overflow heap, the wheels drain, and the
		// migration re-places them with the new base mid-window — the
		// farthest one's window again wraps onto the base's own index.
		e = mk()
		got = nil
		rec = func() { got = append(got, e.Now()) }
		head := int64(wheelSpan + 100)
		mid := int64(wheelSpan + 2*wheelSize + 50)
		wrap := int64(2*wheelSpan + 50) // head's window + farCount
		e.ScheduleAt(100, rec)
		for _, at := range []int64{head, mid, wrap} {
			e.ScheduleAt(at, rec) // beyond the span of base 0: heap-bound
		}
		e.Run(1 << 40)
		want = []int64{100, head, mid, wrap}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("migrated span-boundary events misordered: got %v want %v", got, want)
		}
	})
}

// TestEngineWheelHeapEquivalent is the differential property test: a
// seeded cascade of self-rescheduling events — delays spanning the wheel
// horizon, frequent collisions, bursts of simultaneous work — must
// execute in the identical (time, id) sequence on both queues.
func TestEngineWheelHeapEquivalent(t *testing.T) {
	type fire struct {
		at int64
		id int
	}
	trace := func(mk func() *Engine, seed uint64) []fire {
		e := mk()
		var got []fire
		rng := seed
		next := func(n int64) int64 { // xorshift64*, deterministic
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int64((rng * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
		}
		id := 0
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			id++
			me := id
			return func() {
				got = append(got, fire{at: e.Now(), id: me})
				if depth == 0 {
					return
				}
				for k := next(3); k >= 0; k-- {
					// Mostly hot-horizon; every 7th into the far level,
					// some of those hugging the span boundary (the far
					// index wrap) or past it (heap overflow, exercising
					// divert and migration).
					d := next(2000)
					if next(7) == 0 {
						d += wheelSize + next(3*wheelSize)
						switch next(13) {
						case 0:
							d += wheelSpan
						case 1:
							d = wheelSpan - next(2*wheelSize)
						}
					}
					if next(11) == 0 {
						d = 0 // simultaneous with now
					}
					e.Schedule(d, spawn(depth-1))
				}
			}
		}
		for i := 0; i < 32; i++ {
			e.ScheduleAt(next(500), spawn(6))
		}
		e.Run(1 << 40)
		return got
	}
	for seed := uint64(1); seed <= 5; seed++ {
		w := trace(NewEngine, seed)
		h := trace(NewEngineHeap, seed)
		if len(w) < 100 {
			t.Fatalf("seed %d: degenerate cascade (%d events)", seed, len(w))
		}
		if !reflect.DeepEqual(w, h) {
			n := len(w)
			if len(h) < n {
				n = len(h)
			}
			for i := 0; i < n; i++ {
				if w[i] != h[i] {
					t.Fatalf("seed %d: wheel and heap diverged at event %d: wheel=%+v heap=%+v", seed, i, w[i], h[i])
				}
			}
			t.Fatalf("seed %d: traces differ in length: wheel=%d heap=%d", seed, len(w), len(h))
		}
	}
}

// TestEngineCancelCountsExecutedEvents: the Cancel poll strides over
// executed events, so a run that executes fewer than cancelStride events
// never polls, and one that executes exactly cancelStride polls once.
func TestEngineCancelCountsExecutedEvents(t *testing.T) {
	bothEngines(t, func(t *testing.T, mk func() *Engine) {
		polls := 0
		newRun := func(events int) *Engine {
			e := mk()
			e.Cancel = func() bool { polls++; return false }
			for i := 0; i < events; i++ {
				e.ScheduleAt(int64(i), func() {})
			}
			return e
		}
		polls = 0
		newRun(cancelStride - 1).Run(1 << 40)
		if polls != 0 {
			t.Errorf("%d events polled Cancel %d times, want 0 (stride %d)", cancelStride-1, polls, cancelStride)
		}
		polls = 0
		newRun(cancelStride).Run(1 << 40)
		if polls != 1 {
			t.Errorf("%d events polled Cancel %d times, want 1", cancelStride, polls)
		}
		// And cancellation actually stops the run between events.
		e := mk()
		fired := 0
		e.Cancel = func() bool { return true }
		for i := 0; i < 2*cancelStride; i++ {
			e.ScheduleAt(int64(i), func() { fired++ })
		}
		e.Run(1 << 40)
		if e.Now() >= 1<<40 {
			t.Error("canceled run advanced the clock to its horizon")
		}
		if fired != cancelStride {
			t.Errorf("canceled run executed %d events, want exactly %d", fired, cancelStride)
		}
	})
}

// TestEngineRecordReuse: a freed record is the next one scheduled, whatever
// its kind. A closure event, then a parcel event in its record, then a
// closure again and a parcel again must each dispatch their own handler —
// which holds only because Run clears fn when it frees a record.
func TestEngineRecordReuse(t *testing.T) {
	bothEngines(t, func(t *testing.T, mk func() *Engine) {
		e := mk()
		var got []string
		closure := func(name string) func() { return func() { got = append(got, name) } }
		parcel := func(p Parcel) { got = append(got, fmt.Sprintf("parcel %d", p.Born)) }
		e.ScheduleAt(10, closure("closure 1"))
		e.Run(10)
		slot := e.queue.free
		e.ScheduleParcelAt(20, parcel, Parcel{Born: 2})
		e.Run(20)
		e.ScheduleAt(30, closure("closure 3"))
		e.Run(30)
		e.ScheduleParcelAt(40, parcel, Parcel{Born: 4})
		e.Run(40)
		want := []string{"closure 1", "parcel 2", "closure 3", "parcel 4"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reused records dispatched %q, want %q", got, want)
		}
		if n := len(e.queue.events) - 1; n != 1 || e.queue.free != slot || e.queue.events[slot].next != 0 {
			t.Errorf("four sequential events used %d records (free list head %d), want record %d alone", n, e.queue.free, slot)
		}
	})
}

// TestEngineRunBoundaryLeavesRecords: the records of events past a Run
// boundary — on the hot level, the far level and in the overflow heap —
// are neither freed nor rewritten, even while later pushes recycle the
// records of the events that did fire.
func TestEngineRunBoundaryLeavesRecords(t *testing.T) {
	bothEngines(t, func(t *testing.T, mk func() *Engine) {
		e := mk()
		var got []int64
		parcel := func(p Parcel) { got = append(got, p.Born) }
		e.ScheduleAt(10, func() { got = append(got, -1) })
		pending := map[int32]event{}
		for _, at := range []int64{50, 3 * wheelSize, 2 * wheelSpan} {
			e.ScheduleParcelAt(at, parcel, Parcel{Born: at, core: int32(at % 97)})
			i := int32(len(e.queue.events) - 1)
			pending[i] = e.queue.events[i]
		}
		check := func(when string) {
			t.Helper()
			for i, want := range pending {
				r := e.queue.events[i]
				if r.at != want.at || r.next != want.next || r.p != want.p || r.fn != nil || r.pfn == nil {
					t.Errorf("%s: record %d = {at %d next %d p %+v closure %t}, want {at %d next %d p %+v} untouched",
						when, i, r.at, r.next, r.p, r.fn != nil, want.at, want.next, want.p)
				}
				for f := e.queue.free; f != 0; f = e.queue.events[f].next {
					if f == i {
						t.Errorf("%s: unfired record %d is on the free list", when, i)
					}
				}
			}
		}
		e.Run(20)
		check("after Run(20)")
		e.ScheduleAt(30, func() { got = append(got, -2) }) // takes the fired event's record
		e.Run(40)
		check("after a recycled record fired")
		e.Run(1 << 40)
		want := []int64{-1, -2, 50, 3 * wheelSize, 2 * wheelSpan}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("events fired %v, want %v", got, want)
		}
	})
}

// engineSink keeps the engines TestNewEngineFootprintAlloc builds alive.
var engineSink *Engine

// TestNewEngineFootprintAlloc: an engine costs its set-up no more than
// 256 KB — a 2^14-bucket hot level is 128 KB, where 2^17 buckets zeroed
// 1 MB per engine before the first event.
func TestNewEngineFootprintAlloc(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engineSink = NewEngine()
		}
	})
	if got := r.AllocedBytesPerOp(); got > 256<<10 {
		t.Errorf("NewEngine allocates %d KB, want at most 256 KB", got>>10)
	}
}

// TestEngineWorkCounts: the engine's two work counts move where the work
// happens — a far-level event is relinked into the hot level once, a push
// past the far span goes to the overflow heap once (its migration back is
// no cascade), and a hot event is neither.
func TestEngineWorkCounts(t *testing.T) {
	e := NewEngine()
	for _, at := range []int64{50, 3 * wheelSize, 2 * wheelSpan} {
		e.ScheduleAt(at, func() {})
	}
	e.Run(1 << 40)
	if c, h := e.queue.cascaded, e.queue.heaped; c != 1 || h != 1 {
		t.Errorf("hot, far and overflow events counted %d cascaded and %d heap pushes, want 1 and 1", c, h)
	}
}
