package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"runtime"
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

// TestBurstReaderReadsTheQueueAtOnce: 32 datagrams queued from two
// senders come back from one Read (one per Read off linux), in order,
// with their sizes, bytes and source ports.
func TestBurstReaderReadsTheQueueAtOnce(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "::1"} {
		t.Run(host, func(t *testing.T) {
			rx := listen(t, host)
			TuneUDP(rx)
			senders := []*net.UDPConn{listen(t, host), listen(t, host)}
			dst := rx.LocalAddr().(*net.UDPAddr)
			var want [][]byte
			var from []netip.AddrPort
			for i := 0; i < DefaultBurst; i++ {
				src := senders[i%2]
				frame := bytes.Repeat([]byte{byte(i)}, 60+i*40)
				if _, err := src.WriteToUDP(frame, dst); err != nil {
					t.Fatal(err)
				}
				want = append(want, frame)
				from = append(from, netip.AddrPortFrom(netip.MustParseAddr(host), uint16(src.LocalAddr().(*net.UDPAddr).Port)))
			}
			br := NewBurstReader(rx, DefaultBurst)
			per := DefaultBurst
			if runtime.GOOS != "linux" {
				per = 1
			}
			for got := 0; got < DefaultBurst; {
				n, err := br.Read()
				if err != nil {
					t.Fatal(err)
				}
				if n != per {
					t.Fatalf("Read returned %d datagrams, want %d", n, per)
				}
				for i := 0; i < n; i++ {
					k := got + i
					if !bytes.Equal(br.Frame(i), want[k]) || br.Truncated(i) {
						t.Errorf("datagram %d: %d bytes (truncated %t), want %d", k, len(br.Frame(i)), br.Truncated(i), len(want[k]))
					}
					if br.From(i) != from[k] {
						t.Errorf("datagram %d from %v, want %v", k, br.From(i), from[k])
					}
				}
				got += n
			}
		})
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
	if _, err := tx.WriteToUDP([]byte("after"), rx.LocalAddr().(*net.UDPAddr)); err != nil {
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
			bs.Queue(frame, dst, nil)
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
	round() // warm-up: the send buffer and vectors grow to the batch
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("socket path: %.1f allocs per round, want 0", allocs)
	}
}

// TestOversizedDatagramDropped: a 3000-byte datagram arrives cut to the
// reader's buffer. The switch counts it as an error and never forwards
// its head, the NF sends nothing for it and a Generator does not count
// it; a 1500-byte frame takes each of the three paths intact.
func TestOversizedDatagramDropped(t *testing.T) {
	tb := newUDPTestbed(t, nil, false, macswap)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink, err := NewGenerator(ctx, GenConfig{Listen: "127.0.0.1:0", SwitchAddr: tb.swAddr.String()})
	if err != nil {
		t.Fatal(err)
	}
	stranger := listen(t, "127.0.0.1")
	b := packet.NewBuilder(wGenMAC, wNFMAC)
	for _, size := range []int{3000, 1500} {
		frame := b.UDP(wFlow, size, uint16(size)).Serialize()
		tb.send(t, frame)                                              // through the switch
		for _, to := range []string{tb.nfAddr.String(), sink.Addr()} { // straight to the NF, then to a Generator
			if _, err := stranger.WriteToUDP(frame, net.UDPAddrFromAddrPort(netip.MustParseAddrPort(to))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The generator's 1500-byte frame and the one sent straight to the NF
	// return through the switch; room is left for a stray third.
	got := append(tb.collect(2, 5*time.Second), tb.collect(1, 20*time.Millisecond)...)
	if len(got) != 2 {
		t.Errorf("generator received %d frames, want the two 1500-byte ones", len(got))
	}
	for _, f := range got {
		if len(f) != 1500 {
			t.Errorf("generator received a %d-byte frame", len(f))
		}
	}
	if n := sink.WaitReceived(1, 5*time.Second); n != 1 || sink.ReceivedBytes.Load() != 1500 {
		t.Errorf("Generator counted %d frames of %d bytes, want the one 1500-byte frame", n, sink.ReceivedBytes.Load())
	}
	tb.stop()
	// The generator's 1500-byte frame in, and both NF responses back.
	if tb.errs.Load() != 1 || tb.rx.Load() != 3 {
		t.Errorf("switch rx=%d errors=%d, want 3 and 1", tb.rx.Load(), tb.errs.Load())
	}
	if tb.nfd.Tx.Load() != 2 {
		t.Errorf("NF forwarded %d frames, want the two 1500-byte ones", tb.nfd.Tx.Load())
	}
}
