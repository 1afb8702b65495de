package wire

import (
	"bytes"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

var (
	wGenMAC  = packet.MAC{2, 0, 0, 0, 0, 1}
	wNFMAC   = packet.MAC{2, 0, 0, 0, 0, 2}
	wSinkMAC = packet.MAC{2, 0, 0, 0, 0, 3}
	wFlow    = packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
)

// server hosts the chain of nfs on the NF framework, explicit drops on or
// off.
func server(explicitDrop bool, nfs ...nf.NF) *nf.Server {
	return nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nfs...), ExplicitDrop: explicitDrop})
}

// macswap is the paper's equivalence NF on the framework.
func macswap() *nf.Server { return server(false, nf.MACSwap{}) }

// udpTestbed is the Fig. 5 testbed on loopback sockets, bound in cabling
// order: the switch's socket first, then an NF daemon pointed at it, then
// a test-owned generator socket, which is also where returned frames land.
// Port 0 (the generator) splits, port 1 (the NF) merges, and the
// generator's and sink's MACs route back out of port 0.
type udpTestbed struct {
	loop           SwitchLoop
	rx, tx, errs   atomic.Uint64
	nfd            *NFDaemon
	gen            *net.UDPConn
	swAddr, nfAddr *net.UDPAddr
	// stop closes both daemons and waits for them, making counter reads
	// race-free; it runs at cleanup too.
	stop func()
}

// newUDPTestbed brings the testbed up over testSwitch(pp), its loop's
// Ended unset.
func newUDPTestbed(t *testing.T, pp *core.Config, srv *nf.Server) *udpTestbed {
	t.Helper()
	return startUDPTestbed(t, testSwitch(t, pp), srv, nil)
}

// testSwitch is the testbed's switch loaded with pp (nil: a baseline L2
// switch; a recirculating program borrows pipe 1).
func testSwitch(t *testing.T, pp *core.Config) *core.Switch {
	t.Helper()
	sw := core.NewSwitch("wire-test")
	sw.AddL2Route(wNFMAC, 1)
	sw.AddL2Route(wGenMAC, 0)
	sw.AddL2Route(wSinkMAC, 0)
	if pp != nil {
		recirc := -1
		if pp.Recirculate {
			recirc = 1
		}
		if _, err := sw.AttachPayloadPark(*pp, recirc); err != nil {
			t.Fatal(err)
		}
	}
	return sw
}

// startUDPTestbed brings the testbed up over sw, handing ended (nil or
// not) to the switch loop.
func startUDPTestbed(t *testing.T, sw *core.Switch, srv *nf.Server, ended func([]byte, string)) *udpTestbed {
	t.Helper()
	tb := &udpTestbed{}
	tb.loop = SwitchLoop{
		Conn: listen(t, "127.0.0.1"), SW: sw,
		Peers: make(map[netip.AddrPort]rmt.PortID),
		Addrs: make(map[rmt.PortID]*net.UDPAddr),
		Mail:  make(chan func(), 1),
		Rx:    &tb.rx, Tx: &tb.tx, Errors: &tb.errs,
		Ended: ended,
	}
	tb.swAddr = tb.loop.Conn.LocalAddr().(*net.UDPAddr)
	var err error
	tb.nfd, err = NewNFDaemon("127.0.0.1:0", tb.swAddr.String(), nil, srv)
	if err != nil {
		t.Fatal(err)
	}
	tb.nfAddr = tb.nfd.conn.LocalAddr().(*net.UDPAddr)
	tb.gen = listen(t, "127.0.0.1")
	tb.loop.Cable(0, tb.gen.LocalAddr().(*net.UDPAddr))
	tb.loop.Cable(1, tb.nfAddr)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); tb.loop.Run() }()
	go func() { defer wg.Done(); tb.nfd.Run() }()
	tb.stop = sync.OnceFunc(func() {
		tb.loop.Conn.Close()
		tb.nfd.Close()
		wg.Wait()
	})
	t.Cleanup(tb.stop)
	return tb
}

// send transmits a datagram from the generator socket to the switch.
func (tb *udpTestbed) send(t *testing.T, dgram []byte) {
	t.Helper()
	if _, err := tb.gen.WriteToUDP(dgram, tb.swAddr); err != nil {
		t.Fatal(err)
	}
}

// collect reads the frames returning to the generator socket until n have
// arrived or wait has passed.
func (tb *udpTestbed) collect(n int, wait time.Duration) [][]byte {
	tb.gen.SetReadDeadline(time.Now().Add(wait))
	buf := make([]byte, 1<<16)
	var got [][]byte
	for len(got) < n {
		k, _, err := tb.gen.ReadFromUDP(buf)
		if err != nil {
			break
		}
		frames, _ := decodeDatagram(nil, buf[:k], DefaultBurst)
		for _, f := range frames {
			got = append(got, bytes.Clone(f))
		}
	}
	return got
}

// counters returns the switch's program counters; call after stop.
func (tb *udpTestbed) counters() *core.Counters { return &tb.loop.SW.Programs()[0].C }

// matchAll counts the frames of got that equal a distinct frame of want.
func matchAll(got, want [][]byte) int {
	want = append([][]byte(nil), want...)
	matched := 0
	for _, g := range got {
		for j, w := range want {
			if w != nil && bytes.Equal(g, w) {
				want[j] = nil
				matched++
				break
			}
		}
	}
	return matched
}

func TestUDPDataplaneSplitMergeRoundTrip(t *testing.T) {
	tb := newUDPTestbed(t, &core.Config{Slots: 256, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, macswap())
	const n = 50
	var want [][]byte
	b := packet.NewBuilder(wGenMAC, wNFMAC)
	for i := 0; i < n; i++ {
		pkt := b.UDP(wFlow, 300+i*20, uint16(i))
		// Expected: identical packet with MACs swapped.
		exp := pkt.Clone()
		exp.Eth.Src, exp.Eth.Dst = pkt.Eth.Dst, pkt.Eth.Src
		want = append(want, exp.Serialize())
		tb.send(t, datagram(pkt.Serialize()))
	}
	got := tb.collect(n, 5*time.Second)
	if len(got) != n {
		t.Fatalf("received %d of %d frames", len(got), n)
	}
	// UDP on loopback preserves ordering in practice, but be tolerant:
	// compare as multisets keyed by full frame bytes.
	if matched := matchAll(got, want); matched != n {
		t.Errorf("matched %d of %d frames byte-for-byte", matched, n)
	}
	tb.stop()
	c := tb.counters()
	if c.Splits.Value() == 0 || c.Merges.Value() == 0 {
		t.Errorf("splits=%d merges=%d — PayloadPark inactive on the wire", c.Splits.Value(), c.Merges.Value())
	}
	if c.PrematureEvictions.Value() != 0 {
		t.Errorf("premature evictions on the wire: %d", c.PrematureEvictions.Value())
	}
	if tb.nfd.Rx.Load() != n {
		t.Errorf("NF saw %d frames, want %d", tb.nfd.Rx.Load(), n)
	}
}

func TestUDPDataplaneBaselineEquivalence(t *testing.T) {
	run := func(pp *core.Config) [][]byte {
		tb := newUDPTestbed(t, pp, macswap())
		defer tb.stop()
		b := packet.NewBuilder(wGenMAC, wNFMAC)
		const n = 20
		for i := 0; i < n; i++ {
			tb.send(t, datagram(b.UDP(wFlow, 200+i*50, uint16(i)).Serialize()))
			// Serialize sends so loopback ordering is deterministic.
			time.Sleep(time.Millisecond)
		}
		got := tb.collect(n, 5*time.Second)
		if len(got) != n {
			t.Fatalf("pp=%t: received %d of %d frames", pp != nil, len(got), n)
		}
		return got
	}
	a := run(&core.Config{Slots: 256, MaxExpiry: 1, SplitPort: 0, MergePort: 1})
	c := run(nil)
	for i := range a {
		if !bytes.Equal(a[i], c[i]) {
			t.Errorf("frame %d differs between PayloadPark and baseline", i)
		}
	}
}

func TestUDPDataplaneExplicitDrop(t *testing.T) {
	dropAll := nf.NewFirewall([]nf.FirewallRule{{Bits: 0}})
	tb := newUDPTestbed(t, &core.Config{Slots: 256, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, server(true, dropAll))
	b := packet.NewBuilder(wGenMAC, wNFMAC)
	const n = 10
	for i := 0; i < n; i++ {
		tb.send(t, datagram(b.UDP(wFlow, 500, uint16(i)).Serialize()))
	}
	// All packets are dropped at the NF; explicit-drop notifications must
	// reclaim every slot.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && tb.nfd.Notified.Load() != n {
		time.Sleep(time.Millisecond)
	}
	if got := tb.collect(1, 20*time.Millisecond); len(got) != 0 {
		t.Errorf("generator received %d frames from dropped traffic", len(got))
	}
	tb.stop()
	if tb.nfd.Notified.Load() != n {
		t.Fatalf("notifications = %d, want %d", tb.nfd.Notified.Load(), n)
	}
	if c := tb.counters(); c.ExplicitDrops.Value() != n {
		t.Errorf("explicit drops = %d, want %d", c.ExplicitDrops.Value(), n)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNFDaemon("127.0.0.1:0", "", nil, nil); err == nil {
		t.Error("NF without server accepted")
	}
	if _, err := NewNFDaemon("bad::addr::x", "", nil, macswap()); err == nil {
		t.Error("bad NF listen addr accepted")
	}
	if _, err := NewGenerator("nope", "127.0.0.1:1", nil); err == nil {
		t.Error("bad generator addr accepted")
	}
}

// TestPostWakesAnIdleLoop: a closure posted to an idle switch loop runs
// without waiting for a datagram, and the loop goes on serving frames
// after the interrupted read.
func TestPostWakesAnIdleLoop(t *testing.T) {
	tb := newUDPTestbed(t, nil, macswap())
	b := packet.NewBuilder(wGenMAC, wNFMAC)
	for i := 0; i < 3; i++ {
		ran := make(chan struct{})
		tb.loop.Post(func() { close(ran) })
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a closure posted to an idle loop never ran", i)
		}
		tb.send(t, datagram(b.UDP(wFlow, 200, uint16(i)).Serialize()))
		if got := tb.collect(1, 5*time.Second); len(got) != 1 {
			t.Fatalf("round %d: after a Post the loop returned %d frames, want 1", i, len(got))
		}
	}
}

// TestUnknownPeerIgnored sends from an uncabled socket: the switch must
// count an error and forward nothing.
func TestUnknownPeerIgnored(t *testing.T) {
	tb := newUDPTestbed(t, nil, macswap())
	stranger := listen(t, "127.0.0.1")
	if _, err := stranger.WriteToUDP(datagram(packet.NewBuilder(wGenMAC, wNFMAC).UDP(wFlow, 100, 1).Serialize()), tb.swAddr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && tb.errs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	tb.stop()
	if tb.errs.Load() == 0 {
		t.Error("stranger frame not rejected")
	}
	if tb.rx.Load() != 0 || tb.tx.Load() != 0 {
		t.Errorf("stranger frame entered the switch: rx=%d tx=%d", tb.rx.Load(), tb.tx.Load())
	}
}

// TestUDPDataplaneRecirculation runs the 384-byte parking mode over real
// sockets: the switch recirculates split and merge packets through a
// second pipe.
func TestUDPDataplaneRecirculation(t *testing.T) {
	tb := newUDPTestbed(t, &core.Config{Slots: 128, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true}, macswap())
	b := packet.NewBuilder(wGenMAC, wNFMAC)
	const n = 20
	var want [][]byte
	for i := 0; i < n; i++ {
		pkt := b.UDP(wFlow, 800+i*30, uint16(i)) // all payloads >= 384
		exp := pkt.Clone()
		exp.Eth.Src, exp.Eth.Dst = pkt.Eth.Dst, pkt.Eth.Src
		want = append(want, exp.Serialize())
		tb.send(t, datagram(pkt.Serialize()))
	}
	got := tb.collect(n, 5*time.Second)
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
	tb.stop()
	if matched := matchAll(got, want); matched != n {
		t.Errorf("matched %d of %d through recirculation", matched, n)
	}
	if c := tb.counters(); c.Splits.Value() != n {
		t.Errorf("splits = %d", c.Splits.Value())
	}
}

// TestSwitchLoopEnded: a frame the switch drops for an unknown destination
// MAC and an explicit-drop notification it consumes each reach
// SwitchLoop.Ended with the bytes they arrived with and the switch's drop
// reason; a frame it forwards does not. With Ended nil the same drop is
// only counted, and the loop goes on forwarding.
func TestSwitchLoopEnded(t *testing.T) {
	pp := &core.Config{Slots: 256, MaxExpiry: 1, SplitPort: 0, MergePort: 1}
	dropAll := func() *nf.Server { return server(true, nf.NewFirewall([]nf.FirewallRule{{Bits: 0}})) }
	b := packet.NewBuilder(wGenMAC, wNFMAC)
	stray := packet.NewBuilder(wGenMAC, packet.MAC{2, 0, 0, 0, 0, 9}).UDP(wFlow, 400, 1).Serialize()
	home := packet.NewBuilder(wGenMAC, wSinkMAC).UDP(wFlow, 400, 2).Serialize() // routed back out of port 0
	doomed := b.UDP(wFlow, 500, 3).Serialize()

	// The notification the NF returns for doomed: its split on a twin
	// switch that has split what the testbed's will have, through a twin
	// of the NF.
	fb := testSwitch(t, pp).NewFrameBurst(3)
	for _, frame := range [][]byte{home, stray, doomed} {
		if err := fb.Add(frame, 0); err != nil {
			t.Fatal(err)
		}
	}
	split := fb.Run()[2]
	if !split.OK {
		t.Fatalf("twin switch dropped the frame: %s", split.Reason)
	}
	notice, res, err := dropAll().HandleFrame(split.Em.Pkt.Serialize(), nil)
	if err != nil || !res.Notification {
		t.Fatalf("twin NF returned no notification: %v", err)
	}

	type end struct {
		frame  []byte
		reason string
	}
	var mu sync.Mutex
	var ends []end
	tb := startUDPTestbed(t, testSwitch(t, pp), dropAll(), func(frame []byte, reason string) {
		mu.Lock()
		defer mu.Unlock()
		ends = append(ends, end{bytes.Clone(frame), reason})
	})
	tb.send(t, datagram(home))
	if got := tb.collect(1, 5*time.Second); len(got) != 1 {
		t.Fatalf("the home-bound frame was not forwarded (%d frames back)", len(got))
	}
	tb.send(t, datagram(stray))
	tb.send(t, datagram(doomed))
	seen := func() int { mu.Lock(); defer mu.Unlock(); return len(ends) }
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && seen() < 2; {
		time.Sleep(time.Millisecond)
	}
	if got := tb.collect(1, 20*time.Millisecond); len(got) != 0 {
		t.Errorf("%d frames came back for the stray and the doomed frame", len(got))
	}
	tb.stop()
	want := []end{{stray, core.DropUnknownMAC}, {notice, core.DropExplicitDrop}}
	if len(ends) != len(want) {
		t.Fatalf("Ended saw %d frames, want %d: %q", len(ends), len(want), ends)
	}
	for i, w := range want {
		if ends[i].reason != w.reason || !bytes.Equal(ends[i].frame, w.frame) {
			t.Errorf("ended frame %d: reason %q, %d bytes; want %q, %d bytes, byte for byte", i, ends[i].reason, len(ends[i].frame), w.reason, len(w.frame))
		}
	}

	nilEnded := newUDPTestbed(t, pp, macswap())
	nilEnded.send(t, datagram(stray))
	nilEnded.send(t, datagram(doomed))
	if got := nilEnded.collect(1, 5*time.Second); len(got) != 1 {
		t.Fatalf("with Ended nil, %d frames came back after a drop, want 1", len(got))
	}
}
