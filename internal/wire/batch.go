package wire

import (
	"net"
	"sync/atomic"

	"github.com/payloadpark/payloadpark/internal/obs"
)

// sendMark is one pending frame inside a BatchSender: where its bytes end
// in the shared backing buffer, where it goes, and (optionally) which
// counter to bump when the write lands.
type sendMark struct {
	end int
	dst *net.UDPAddr
	ok  *atomic.Uint64
}

// BatchSender is the transmit mirror of the receive burst: frames are
// serialized back to back into one reused backing buffer during burst
// processing and written out together at the end of the burst: one
// sendmmsg(2) on linux, one sendto per frame elsewhere (see Flush). The
// send path allocates nothing in steady state (the buffer grows once to
// the burst high-water mark) and the serialization cost is paid while the
// burst is hot in cache rather than interleaved with socket writes.
//
// Usage per frame: out := s.Begin(); out = pkt.AppendSerialize(out);
// s.Commit(out, dst, &txCounter) — Begin hands out the buffer tail,
// Commit adopts whatever backing array the append left the frame in.
// A Begin without a matching Commit simply leaves the buffer untouched.
type BatchSender struct {
	conn  *net.UDPConn
	buf   []byte
	marks []sendMark
	mm    mmsg // the sendmmsg vectors (linux)

	// Hist, when set, observes each flushed batch's frame count
	// (nil-safe, zero-alloc): the sendmmsg batch-size distribution.
	Hist *obs.Histogram
}

// NewBatchSender wraps conn. One BatchSender is owned by one goroutine.
func NewBatchSender(conn *net.UDPConn) *BatchSender {
	s := &BatchSender{conn: conn}
	s.mm.bind(conn, nil)
	return s
}

// Begin returns the buffer tail to append the next frame into.
func (s *BatchSender) Begin() []byte { return s.buf }

// Commit records the frame appended onto the slice Begin returned
// (adopting its backing array, which may have grown) as pending for dst.
// ok, when non-nil, is incremented once the frame's write succeeds in
// Flush. Zero-length appends are dropped.
//
//pp:zeroalloc
func (s *BatchSender) Commit(buf []byte, dst *net.UDPAddr, ok *atomic.Uint64) {
	if len(buf) <= len(s.buf) {
		return
	}
	s.buf = buf
	s.marks = append(s.marks, sendMark{end: len(buf), dst: dst, ok: ok})
}

// Queue copies an externally built frame into the batch for dst; see
// Commit for ok.
//
//pp:zeroalloc
func (s *BatchSender) Queue(frame []byte, dst *net.UDPAddr, ok *atomic.Uint64) {
	if len(frame) == 0 {
		return
	}
	s.Commit(append(s.buf, frame...), dst, ok) //pp:alloc-ok grows s.buf's backing, adopted back by Commit; amortized warm-up
}

// Pending returns how many frames await Flush.
func (s *BatchSender) Pending() int { return len(s.marks) }

// Flush writes every pending frame and resets the batch, returning how
// many writes failed. Successful writes bump their Commit counters.
//
// On linux the whole batch goes down in one sendmmsg(2) call — the real
// syscall amortization batching buys; elsewhere (or when the batch can't
// be expressed for the socket's address family) it degrades to one
// WriteToUDP per frame.
//
//pp:zeroalloc
func (s *BatchSender) Flush() (errs int) {
	if len(s.marks) == 0 {
		return 0
	}
	s.Hist.Observe(uint64(len(s.marks)))
	errs, handled := s.flushFast()
	for i, start := 0, 0; !handled && i < len(s.marks); i++ {
		m := &s.marks[i]
		if _, err := s.conn.WriteToUDP(s.buf[start:m.end], m.dst); err != nil {
			errs++
		} else if m.ok != nil {
			m.ok.Add(1)
		}
		start = m.end
	}
	s.buf = s.buf[:0]
	s.marks = s.marks[:0]
	return errs
}
