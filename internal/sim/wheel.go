package sim

import "math/bits"

// This file is the engine's event queue: a hierarchical timing wheel —
// a hot level at 1 ns granularity covering the current ~16 µs window, a
// far level of whole-window buckets covering the next ~16.8 ms, and the
// 4-ary heap of engine.go demoted to an overflow level beyond that. It
// owns the event records: one arena, one record per event, which wheel
// buckets and the free list chain by index and heap nodes point at by
// slot.
//
// The hot wheel wins where the simulator lives: link serialization,
// switch traversal, and server-station events all fire within a few
// microseconds of now, so insert and extract become O(1) bucket appends
// and bitmap scans instead of O(log n) heap sifts. The far level absorbs
// what a loaded fabric schedules beyond the hot window — the drain
// backlog of saturated queues and server stations runs up to milliseconds
// ahead of the clock at 100G — and cascades each window's bucket into
// the hot wheel as the clock reaches it. Only events past the far
// span (measurement-window boundaries, stall timers) overflow into the
// heap, which sees a handful of events per run and stops mattering to
// the profile.
//
// Ordering is the engine's (at, seq) contract, preserved by construction
// rather than by comparison — which is why a wheel-resident record keeps
// no seq, and only heap nodes carry one:
//
//   - The hot wheel holds only events of the current wheelSize-aligned
//     window, so two distinct timestamps can never share a hot bucket,
//     and a bucket's append-order list IS (at, seq) FIFO order.
//   - A far bucket holds exactly one window's events (admission is by
//     window distance — anything farCount or more windows past base's
//     was sent to the heap instead — so an occupied index can never
//     alias base's own, and the circular far scan starting at base's
//     index always meets the nearest window first), appended in push
//     order —
//     so equal-timestamp events sit in seq order. Its bucket is cascaded
//     exactly when its window becomes current: before any hot-level push
//     can target that window. Cascaded nodes therefore always precede
//     the current window's direct pushes in every hot bucket, and both
//     are in seq order, so the relink preserves global FIFO.
//   - An event enters a wheel level only if it fires strictly earlier
//     than the overflow heap's minimum; otherwise it overflows.
//     Inductively every heap event fires at or after every wheel event,
//     and on an equal timestamp the heap event was necessarily scheduled
//     later (greater seq) — so pop never compares levels: the wheels
//     always drain first.
//   - When both wheel levels are empty, the in-span prefix of the heap
//     migrates back into the wheels (in (at, seq) pop order, so bucket
//     lists stay FIFO). Without the migration a single near-future heap
//     resident would divert every later push to the heap for as long as
//     it stayed enqueued, degenerating the queue back into a heap under
//     exactly the loads the wheel exists for.
const (
	wheelBits = 14
	// wheelSize is the hot horizon in nanoseconds (~16 µs, 128 KB of
	// buckets): past link serialization (~1.2 µs for 1500 B at 10G) and
	// server stations. A congested port's tx-done events (a full 1 MB queue
	// drains in ~84 µs at 100G) wait in the far level and cascade once;
	// the engine's cascade and heap counts are what this size trades.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	// wheelWords / sumWords size the hot level's two-level occupancy
	// bitmap: one bit per bucket, one summary bit per occupancy word.
	wheelWords = wheelSize / 64
	sumWords   = wheelWords / 64
	// farCount far buckets, one per wheelSize window, cover wheelSpan
	// (~16.8 ms) past the hot horizon; farWords is their occupancy bitmap.
	farBits   = 10
	farCount  = 1 << farBits
	farMask   = farCount - 1
	farWords  = farCount / 64
	wheelSpan = wheelSize * farCount
)

// wbucket is one hot-wheel slot's FIFO list of records. The zero value is
// the empty list, so the bucket array needs no initialization pass.
type wbucket struct {
	head, tail int32
}

// farBucket is one window's FIFO list plus the earliest timestamp in it
// (maintained on append; a bucket mixes timestamps, so the minimum can't
// be read off the head the way a hot bucket's can).
type farBucket struct {
	head, tail int32
	min        int64
}

// timeWheel is the three-level event queue. With enabled=false it
// degrades to the bare overflow heap — the reference scheduler only the
// differential tests and benchmarks select (NewEngineHeap, in the tests'
// export_test.go).
type timeWheel struct {
	enabled bool
	// base is the lower edge of the hot window: the engine clock as of
	// the last pop or push. Every hot-resident event fires in
	// [base, base+wheelSize) within base's wheelSize-aligned window.
	base             int64
	count            int    // hot-level population
	farN             int    // far-level population
	cascaded, heaped uint64 // records cascade relinked into the hot level; overflow-heap pushes

	buckets []wbucket
	occ     []uint64
	sum     []uint64
	far     []farBucket
	farOcc  []uint64
	// events is the record arena, grown to the peak in-flight count. free
	// heads the list of fired records, chained through next: push takes
	// its head and Engine.Run returns each record once it has fired.
	events []event
	free   int32

	overflow nodeHeap
}

func (w *timeWheel) init(enabled bool) {
	w.enabled = enabled
	if enabled {
		w.buckets = make([]wbucket, wheelSize)
		w.occ = make([]uint64, wheelWords)
		w.sum = make([]uint64, sumWords)
		w.far = make([]farBucket, farCount)
		w.farOcc = make([]uint64, farWords)
	}
	w.events = make([]event, 1, 256) // slot 0 is the nil sentinel
}

func (w *timeWheel) len() int { return w.count + w.farN + len(w.overflow) }

// push enqueues a free record firing at at, the engine's seq-th event,
// and returns it; now is the engine clock (at >= now always, the engine
// clamps).
func (w *timeWheel) push(at int64, seq uint64, now int64) *event {
	i := w.free
	if i != 0 {
		w.free = w.events[i].next
		w.events[i].at, w.events[i].next = at, 0
	} else {
		i = int32(len(w.events))
		w.events = append(w.events, event{at: at})
	}
	if now > w.base {
		// Advancing the horizon is free: no live wheel event fires
		// before now, and bucket indexing is by absolute timestamp. If
		// the clock crossed into a new window (a Run boundary parked it
		// past the last event), that window's far bucket must cascade
		// before this push can land in the hot level behind its events.
		crossed := now>>wheelBits != w.base>>wheelBits
		w.base = now
		if crossed && w.farN > 0 {
			if fi := int(now>>wheelBits) & farMask; w.far[fi].head != 0 {
				w.cascade(fi)
			}
		}
	}
	if !w.enabled || (at>>wheelBits)-(w.base>>wheelBits) >= farCount || (len(w.overflow) > 0 && at >= w.overflow[0].at) {
		w.overflow.push(node{at: at, seq: seq, slot: i})
		w.heaped++
	} else {
		w.place(i, at)
	}
	return &w.events[i]
}

// place inserts record i, firing at at, into the hot or far level. Callers
// guarantee at >= base, that at's window is within farCount-1 windows of
// base's, and, for FIFO, that i follows every already-placed
// equal-timestamp event in seq order.
func (w *timeWheel) place(i int32, at int64) {
	if at>>wheelBits != w.base>>wheelBits {
		fi := int(at>>wheelBits) & farMask
		b := &w.far[fi]
		if b.head == 0 {
			b.head, b.tail, b.min = i, i, at
			w.farOcc[fi>>6] |= 1 << uint(fi&63)
		} else {
			w.events[b.tail].next = i
			b.tail = i
			if at < b.min {
				b.min = at
			}
		}
		w.farN++
		return
	}
	w.link(int(at)&wheelMask, i)
}

// link appends record ni to hot bucket idx. Emptiness is read off the
// occupancy bitmap, not the bucket: the bitmap is 2 KB and stays cached,
// while the 128 KB bucket array is touched at a fresh line per timestamp —
// so the common first-event-of-its-nanosecond case only stores to that
// line and never waits for it.
func (w *timeWheel) link(idx int, ni int32) {
	b := &w.buckets[idx]
	if bit := uint64(1) << uint(idx&63); w.occ[idx>>6]&bit == 0 {
		b.head, b.tail = ni, ni
		w.occ[idx>>6] |= bit
		w.sum[idx>>12] |= 1 << uint((idx>>6)&63)
	} else {
		w.events[b.tail].next = ni
		b.tail = ni
	}
	w.count++
}

// cascade relinks far bucket fi's list into the hot wheel. The caller
// has advanced base into (or up to the minimum of) that bucket's window,
// so every record lands in the current hot window.
func (w *timeWheel) cascade(fi int) {
	b := &w.far[fi]
	ni := b.head
	b.head, b.tail, b.min = 0, 0, 0
	w.farOcc[fi>>6] &^= 1 << uint(fi&63)
	for ni != 0 {
		r := &w.events[ni]
		next := r.next
		r.next = 0
		w.link(int(r.at)&wheelMask, ni)
		w.farN--
		w.cascaded++
		ni = next
	}
}

// popLE unlinks the earliest event if it fires at or before limit and
// returns its record's slot, which the caller frees once it has read the
// record. Events beyond limit are left queued (Run boundaries must not
// disturb ordering).
func (w *timeWheel) popLE(limit int64) (int32, bool) {
	for {
		if w.count > 0 {
			idx := w.scanFrom(int(w.base) & wheelMask)
			b := &w.buckets[idx]
			ni := b.head
			r := &w.events[ni]
			if r.at > limit {
				return 0, false
			}
			if b.head = r.next; b.head == 0 {
				b.tail = 0
				if w.occ[idx>>6] &^= 1 << uint(idx&63); w.occ[idx>>6] == 0 {
					w.sum[idx>>12] &^= 1 << uint((idx>>6)&63)
				}
			}
			w.count--
			w.base = r.at
			return ni, true
		}
		if w.farN > 0 {
			fi := w.farScan()
			min := w.far[fi].min
			if min > limit {
				return 0, false
			}
			// min is the next event to fire anywhere (the heap holds only
			// later events), so the clock is about to reach it: advancing
			// base into its window cannot skip anything.
			w.base = min
			w.cascade(fi)
			continue
		}
		if len(w.overflow) == 0 || w.overflow[0].at > limit {
			return 0, false
		}
		if !w.enabled {
			i := w.overflow[0].slot
			w.overflow.pop()
			return i, true
		}
		// Both wheel levels are drained: migrate the heap's in-span
		// prefix back into them (in pop order, so bucket lists stay
		// FIFO), de-poisoning future pushes, then pop from the wheel.
		w.base = w.overflow[0].at
		for len(w.overflow) > 0 && (w.overflow[0].at>>wheelBits)-(w.base>>wheelBits) < farCount {
			n := w.overflow[0]
			w.overflow.pop()
			w.place(n.slot, n.at)
		}
	}
}

// scanFrom returns the first occupied hot bucket at or circularly after
// index s — the minimum-timestamp bucket, because all live hot events fit
// one horizon starting at base. The caller guarantees count > 0.
func (w *timeWheel) scanFrom(s int) int {
	// Bits at or after s inside s's own occupancy word.
	if m := w.occ[s>>6] >> uint(s&63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	// Whole words after s, wrapping once; the summary level keeps this to
	// a handful of loads however sparse the wheel is. The final iteration
	// revisits the starting summary word to cover the wrapped tail.
	start := s>>6 + 1
	for step := 0; step <= sumWords; step++ {
		si := (start>>6 + step) & (sumWords - 1)
		m := w.sum[si]
		if step == 0 && start&63 != 0 {
			m &= ^uint64(0) << uint(start&63)
		}
		if m != 0 {
			wi := si<<6 + bits.TrailingZeros64(m)
			return wi<<6 + bits.TrailingZeros64(w.occ[wi])
		}
	}
	panic("sim: timing wheel scan found no event (count corrupted)")
}

// farScan returns the occupied far bucket whose window is nearest
// circularly after base's — the earliest, since every occupied window
// lies in (base's window, base's window+farCount), so no occupied index
// ever aliases base's own. The caller guarantees farN > 0.
func (w *timeWheel) farScan() int {
	s := int(w.base>>wheelBits) & farMask
	if m := w.farOcc[s>>6] >> uint(s&63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	for step := 1; step <= farWords; step++ {
		si := (s>>6 + step) & (farWords - 1)
		if m := w.farOcc[si]; m != 0 {
			return si<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: far wheel scan found no event (count corrupted)")
}
