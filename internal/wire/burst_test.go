package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// listen binds a UDP socket on host's loopback; a host without IPv6
// skips the test.
func listen(t *testing.T, host string) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(host)})
	if err != nil && host == "::1" {
		t.Skipf("no IPv6 loopback: %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// datagram packs frames with the one encoder.
func datagram(frames ...[]byte) []byte {
	var d []byte
	for _, f := range frames {
		d = appendFrame(d, f)
	}
	return d
}

// readBurst reads one datagram and returns copies of its frames, failing
// the test on a socket error or a rejected datagram.
func readBurst(t *testing.T, br *BurstReader) [][]byte {
	t.Helper()
	n, err := br.Read()
	if err != nil || n == 0 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	var got [][]byte
	for i := 0; i < n; i++ {
		got = append(got, bytes.Clone(br.Frame(i)))
	}
	return got
}

// TestFlushPacksARunPerPeer: one Flush of 32 mixed-size frames, the first
// 16 for one receiver and the rest for another, reaches each receiver as
// one datagram — its frames in order, from the sender — and a run longer
// than DefaultBurst frames or maxDatagram bytes splits in two.
func TestFlushPacksARunPerPeer(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "::1"} {
		t.Run(host, func(t *testing.T) {
			tx := listen(t, host)
			rxs := []*net.UDPConn{listen(t, host), listen(t, host)}
			rxs[0].SetReadBuffer(1 << 21)
			brs := []*BurstReader{NewBurstReader(rxs[0], 0), NewBurstReader(rxs[1], 0)}
			dsts := []*net.UDPAddr{rxs[0].LocalAddr().(*net.UDPAddr), rxs[1].LocalAddr().(*net.UDPAddr)}
			from := netip.AddrPortFrom(netip.MustParseAddr(host), uint16(tx.LocalAddr().(*net.UDPAddr).Port))
			for _, rx := range rxs {
				rx.SetReadDeadline(time.Now().Add(5 * time.Second))
			}
			bs := NewBatchSender(tx)
			var want [2][][]byte
			for i := 0; i < DefaultBurst; i++ {
				frame := bytes.Repeat([]byte{byte(i)}, 60+i*40)
				queue(bs, frame, dsts[i/16])
				want[i/16] = append(want[i/16], frame)
			}
			if errs := bs.Flush(); errs != 0 {
				t.Fatalf("%d send errors", errs)
			}
			for r, br := range brs {
				got := readBurst(t, br)
				if len(got) != len(want[r]) {
					t.Fatalf("receiver %d: one Read returned %d frames, want %d", r, len(got), len(want[r]))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[r][i]) {
						t.Errorf("receiver %d frame %d: %d bytes, want %d", r, i, len(got[i]), len(want[r][i]))
					}
				}
				if br.From(0) != from {
					t.Errorf("receiver %d: from %v, want %v", r, br.From(0), from)
				}
			}

			// 32 frames of MaxFrame bytes overrun maxDatagram after 31;
			// 40 small ones overrun DefaultBurst after 32.
			for _, c := range []struct{ frames, size, first int }{
				{DefaultBurst, MaxFrame, maxDatagram / (lenPrefix + MaxFrame)},
				{40, 100, DefaultBurst},
			} {
				for i := 0; i < c.frames; i++ {
					queue(bs, bytes.Repeat([]byte{byte(i)}, c.size), dsts[0])
				}
				if errs := bs.Flush(); errs != 0 {
					t.Fatalf("%d send errors", errs)
				}
				first, second := readBurst(t, brs[0]), readBurst(t, brs[0])
				if len(first) != c.first || len(second) != c.frames-c.first {
					t.Errorf("%d frames of %d bytes arrived as %d + %d, want %d + %d",
						c.frames, c.size, len(first), len(second), c.first, c.frames-c.first)
				}
				if last := second[len(second)-1]; last[0] != byte(c.frames-1) {
					t.Errorf("the split run ends with frame %d, want %d", last[0], c.frames-1)
				}
			}

			// A frame no UDP datagram holds goes alone and fails; its
			// neighbours arrive.
			queue(bs, []byte("a"), dsts[0])
			queue(bs, make([]byte, 1<<16-1), dsts[0])
			queue(bs, []byte("b"), dsts[0])
			if errs := bs.Flush(); errs != 1 {
				t.Errorf("flush around an unsendable frame: %d errors, want 1", errs)
			}
			if a, b := readBurst(t, brs[0]), readBurst(t, brs[0]); string(a[0]) != "a" || string(b[0]) != "b" {
				t.Errorf("neighbours of an unsendable frame arrived as %q, %q", a, b)
			}
		})
	}
}

// TestDecodeRejectsHostileDatagrams: the decoder takes a datagram only
// when its length prefixes tile it exactly with one to max frames.
func TestDecodeRejectsHostileDatagrams(t *testing.T) {
	two := datagram([]byte("ab"), []byte("cde"))
	for _, c := range []struct {
		name  string
		dgram []byte
		max   int
		want  int // frames; 0 means rejected
	}{
		{"two frames", two, 2, 2},
		{"empty", nil, 2, 0},
		{"zero length", append(datagram([]byte("ab")), 0, 0), 2, 0},
		{"prefix overruns", two[:len(two)-1], 2, 0},
		{"trailing byte", append(bytes.Clone(two), 7), 2, 0},
		{"trailing prefix", append(bytes.Clone(two), 0, 1), 2, 0},
		{"more frames than the burst", two, 1, 0},
	} {
		frames, ok := decodeDatagram(make([][]byte, 0, 4), c.dgram, c.max)
		if ok != (c.want > 0) || len(frames) != c.want {
			t.Errorf("%s: %d frames, ok %t; want %d", c.name, len(frames), ok, c.want)
		}
	}
}

// TestBurstReaderDeadlineAndClose: a read deadline ends a wait with a
// timeout net.Error (the live workers' mailbox wake), the reader still
// reads once it is lifted, and Close ends a blocked Read with an error.
func TestBurstReaderDeadlineAndClose(t *testing.T) {
	rx, tx := listen(t, "127.0.0.1"), listen(t, "127.0.0.1")
	br := NewBurstReader(rx, 0)
	rx.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	var ne net.Error
	if n, err := br.Read(); !errors.As(err, &ne) || !ne.Timeout() || n != 0 {
		t.Fatalf("past the deadline Read = %d, %v; want 0 and a timeout net.Error", n, err)
	}
	rx.SetReadDeadline(time.Time{})
	if _, err := tx.WriteToUDP(datagram([]byte("after")), rx.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	if n, err := br.Read(); n != 1 || err != nil || string(br.Frame(0)) != "after" {
		t.Fatalf("after the deadline Read = %d, %v", n, err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := br.Read()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	rx.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Read after Close returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not end a blocked Read")
	}
}

// queue copies a built frame into bs's batch for dst.
func queue(bs *BatchSender, frame []byte, dst *net.UDPAddr) {
	bs.Commit(append(bs.Begin(), frame...), dst, nil)
}

// TestSocketPathAllocFree: a round of eight frames queued and flushed
// through BatchSender, then drained with BurstReader.Read, allocates
// nothing once the buffers have grown.
func TestSocketPathAllocFree(t *testing.T) {
	tx, rx := listen(t, "127.0.0.1"), listen(t, "127.0.0.1")
	rx.SetReadDeadline(time.Now().Add(time.Minute))
	dst := rx.LocalAddr().(*net.UDPAddr)
	bs, br := NewBatchSender(tx), NewBurstReader(rx, DefaultBurst)
	frame := benchFrame(1)
	round := func() {
		for i := 0; i < 8; i++ {
			queue(bs, frame, dst)
		}
		if errs := bs.Flush(); errs != 0 {
			t.Fatalf("%d send errors", errs)
		}
		for got := 0; got < 8; {
			n, err := br.Read()
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	round() // warm-up: the send buffer grows to the batch
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("socket path: %.1f allocs per round, want 0", allocs)
	}
}

// TestOversizedDatagramDropped: a 3000-byte frame packed between two
// 1500-byte frames, and a datagram with a byte trailing its one frame. At
// the switch the oversized frame and the malformed datagram are one error
// each and are never forwarded; the NF answers neither, and a Generator
// counts neither. The 1500-byte frames take each of the three paths
// intact.
func TestOversizedDatagramDropped(t *testing.T) {
	tb := newUDPTestbed(t, nil, macswap())
	recv := NewWaiter()
	sink, err := NewGenerator("127.0.0.1:0", tb.swAddr.String(), Wake{recv})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	stranger := listen(t, "127.0.0.1")
	b := packet.NewBuilder(wGenMAC, wNFMAC)
	good := b.UDP(wFlow, 1500, 1).Serialize()
	packed := datagram(good, b.UDP(wFlow, 3000, 2).Serialize(), good)
	malformed := append(datagram(good), 0)
	for _, dgram := range [][]byte{packed, malformed} {
		tb.send(t, dgram)                                           // through the switch
		for _, to := range []*net.UDPAddr{tb.nfAddr, sink.Addr()} { // straight to the NF, then to a Generator
			if _, err := stranger.WriteToUDP(dgram, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The generator's two good frames and the two sent straight to the NF
	// return through the switch; room is left for a stray fifth.
	got := append(tb.collect(4, 5*time.Second), tb.collect(1, 20*time.Millisecond)...)
	if len(got) != 4 {
		t.Errorf("generator received %d frames, want the four 1500-byte ones", len(got))
	}
	for _, f := range got {
		if len(f) != 1500 {
			t.Errorf("generator received a %d-byte frame", len(f))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	recv.WaitFor(ctx, func() bool { return sink.Received.Load() >= 2 })
	if n := sink.Received.Load(); n != 2 || sink.ReceivedBytes.Load() != 3000 {
		t.Errorf("Generator counted %d frames of %d bytes, want the two 1500-byte frames", n, sink.ReceivedBytes.Load())
	}
	tb.stop()
	// In: the generator's two good frames, both back from the NF, and the
	// NF's answers to the two it was sent straight.
	if tb.errs.Load() != 2 || tb.rx.Load() != 6 {
		t.Errorf("switch rx=%d errors=%d, want 6 and 2", tb.rx.Load(), tb.errs.Load())
	}
	// Two frames from the switch, three straight, none of the malformed.
	if tb.nfd.Rx.Load() != 5 || tb.nfd.Tx.Load() != 4 {
		t.Errorf("NF rx=%d tx=%d, want 5 and 4", tb.nfd.Rx.Load(), tb.nfd.Tx.Load())
	}
}
