package wire

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync/atomic"

	"github.com/payloadpark/payloadpark/internal/obs"
)

// The datagram format every endpoint speaks: a UDP datagram carries one or
// more Ethernet frames for one peer, each preceded by its length as a
// 2-byte big-endian integer, and the length prefixes tile the datagram
// exactly. appendFrame is its one encoder and decodeDatagram its one
// decoder.

// lenPrefix is the size of the length that precedes each frame.
const lenPrefix = 2

// maxDatagram is the largest UDP payload an IPv4 datagram holds: 65,535
// bytes less the IPv4 and UDP headers.
const maxDatagram = 65507

// appendFrame appends frame to the datagram dgram, behind its length.
func appendFrame(dgram, frame []byte) []byte {
	return append(binary.BigEndian.AppendUint16(dgram, uint16(len(frame))), frame...)
}

// decodeDatagram splits dgram into its frames, which it returns in
// frames[:0] as subslices of dgram. It rejects the datagram whole (false,
// no frames) unless the length prefixes tile it exactly with one to max
// frames, none of them empty.
//
//pp:zeroalloc
func decodeDatagram(frames [][]byte, dgram []byte, max int) ([][]byte, bool) {
	frames = frames[:0]
	for len(dgram) > 0 {
		if len(dgram) < lenPrefix || len(frames) == max {
			return frames[:0], false
		}
		n := int(binary.BigEndian.Uint16(dgram))
		if dgram = dgram[lenPrefix:]; n == 0 || n > len(dgram) {
			return frames[:0], false
		}
		frames = append(frames, dgram[:n:n])
		dgram = dgram[n:]
	}
	return frames, len(frames) > 0
}

// BurstReader reads a UDP socket a datagram at a time into one reused
// buffer, which holds any UDP datagram whole, and hands out the frames the
// datagram carries: one Read is one receive burst. The switch loop, the NF
// daemon and the generator's receive loop share it; one BurstReader is
// owned by one goroutine.
type BurstReader struct {
	conn   *net.UDPConn
	buf    []byte
	frames [][]byte
	from   netip.AddrPort

	// Hist, when set, observes each burst's frame count (nil-safe,
	// zero-alloc).
	Hist *obs.Histogram
}

// NewBurstReader wraps conn; a datagram carrying more than burst frames is
// rejected (burst <= 0 selects DefaultBurst).
func NewBurstReader(conn *net.UDPConn, burst int) *BurstReader {
	if burst <= 0 {
		burst = DefaultBurst
	}
	return &BurstReader{conn: conn, buf: make([]byte, 1<<16), frames: make([][]byte, 0, burst)}
}

// Frame returns the i-th frame of the current burst, valid until the next
// Read.
func (b *BurstReader) Frame(i int) []byte { return b.frames[i] }

// Truncated reports whether the i-th frame is longer than MaxFrame: no
// endpoint takes it as a frame.
func (b *BurstReader) Truncated(i int) bool { return len(b.frames[i]) > MaxFrame }

// From returns the source address of the current burst's datagram, which
// every frame of it shares (IPv4-mapped addresses unmapped, no zone).
func (b *BurstReader) From(int) netip.AddrPort { return b.from }

// Read waits until the socket holds a datagram, reads it, and returns how
// many frames it carries. A datagram the decoder rejects reads as zero
// frames with a nil error. Otherwise the error is the conn's — a net.Error
// whose Timeout() is true past a read deadline, net.ErrClosed after Close
// — and comes only with a zero count.
//
//pp:zeroalloc
func (b *BurstReader) Read() (int, error) {
	n, from, err := b.conn.ReadFromUDPAddrPort(b.buf)
	if err != nil {
		return 0, err
	}
	b.from = peerKey(from)
	var ok bool
	if b.frames, ok = decodeDatagram(b.frames, b.buf[:n], cap(b.frames)); !ok {
		return 0, nil
	}
	b.Hist.Observe(uint64(len(b.frames)))
	return len(b.frames), nil
}

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
// processing, and Flush packs them into datagrams at the end of the burst.
// The send path allocates nothing in steady state (the buffer grows once
// to the burst high-water mark) and the serialization cost is paid while
// the burst is hot in cache rather than interleaved with socket writes.
//
// Usage per frame: out := s.Begin(); out = pkt.AppendSerialize(out);
// s.Commit(out, dst, &txCounter) — Begin hands out the buffer tail,
// Commit adopts whatever backing array the append left the frame in.
// A Begin without a matching Commit simply leaves the buffer untouched.
type BatchSender struct {
	conn  *net.UDPConn
	buf   []byte
	marks []sendMark
	dgram []byte

	// Hist, when set, observes each flushed batch's frame count
	// (nil-safe, zero-alloc).
	Hist *obs.Histogram
}

// NewBatchSender wraps conn. One BatchSender is owned by one goroutine.
func NewBatchSender(conn *net.UDPConn) *BatchSender {
	return &BatchSender{conn: conn, dgram: make([]byte, 0, maxDatagram)}
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

// Pending returns how many frames await Flush.
func (s *BatchSender) Pending() int { return len(s.marks) }

// Flush writes every pending frame and resets the batch, returning how
// many frames failed. Successful writes bump their Commit counters.
//
// Each run of consecutive frames for one destination (one *net.UDPAddr:
// callers pass one pointer per peer) goes out as one datagram of at most
// DefaultBurst frames and maxDatagram bytes, so a longer run splits. A
// frame too long for any datagram goes alone, and the kernel refuses it.
//
//pp:zeroalloc
func (s *BatchSender) Flush() (errs int) {
	if len(s.marks) == 0 {
		return 0
	}
	s.Hist.Observe(uint64(len(s.marks)))
	for i, start := 0, 0; i < len(s.marks); {
		dst := s.marks[i].dst
		s.dgram = s.dgram[:0]
		j := i
		for ; j < len(s.marks) && j-i < DefaultBurst && s.marks[j].dst == dst; j++ {
			frame := s.buf[start:s.marks[j].end]
			if j > i && len(s.dgram)+lenPrefix+len(frame) > maxDatagram {
				break
			}
			s.dgram = appendFrame(s.dgram, frame)
			start = s.marks[j].end
		}
		if _, err := s.conn.WriteToUDPAddrPort(s.dgram, sendAddr(dst)); err != nil {
			errs += j - i
		} else {
			for _, m := range s.marks[i:j] {
				if m.ok != nil {
					m.ok.Add(1)
				}
			}
		}
		i = j
	}
	s.buf = s.buf[:0]
	s.marks = s.marks[:0]
	return errs
}

// sendAddr is dst as WriteToUDPAddrPort takes it: an IPv4 socket refuses
// an IPv4-mapped address.
func sendAddr(dst *net.UDPAddr) netip.AddrPort {
	ap := dst.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}
