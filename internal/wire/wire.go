// Package wire runs the PayloadPark dataplane over real UDP sockets: the
// switch, the NF server, and the traffic generator are separate endpoints
// exchanging raw Ethernet frames encapsulated in UDP datagrams, so the
// byte-accurate program from internal/core can be exercised across
// process boundaries exactly as the hardware prototype sits between
// physical boxes.
//
// A datagram carries a burst: up to DefaultBurst frames bound for one
// peer, each behind a 2-byte big-endian length (appendFrame and
// decodeDatagram hold the format). The kernel's loopback path costs per
// datagram, not per byte, so a burst crosses a hop for the price of one
// frame. A datagram whose prefixes do not tile it exactly is dropped
// whole.
//
// The package holds the endpoints, not the topology: SwitchLoop drives a
// switch some caller loaded (sim.Graph.Realise, for cmd/ppswitchd and the
// live fabric alike), NFDaemon puts an nf.Server — the one NF framework,
// explicit-drop notification included — on a socket, and Generator sends
// and counts. Cabling is static: each logical switch port is bound to one peer
// UDP address, and a frame's ingress port is determined by its source
// address — the same port-based disambiguation the paper's switch uses
// (§5). Every socket is bound before its peers are pointed at it.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// MaxFrame is the largest encapsulated frame accepted.
const MaxFrame = 2048

// DefaultBurst is the burst size of every socket endpoint: the most frames
// one datagram carries, so the most one BurstReader.Read returns and one
// datagram of a BatchSender.Flush packs.
const DefaultBurst = 32

// Waiter blocks one goroutine on endpoint progress: an endpoint posts its
// waiter after each datagram it reads. Its waits re-read the counters
// after each token, so a token posted between a read and the wait is kept
// and no progress goes unseen.
type Waiter struct{ c chan struct{} }

// NewWaiter returns a waiter holding no token.
func NewWaiter() *Waiter { return &Waiter{make(chan struct{}, 1)} }

// Post hands w a token, never blocking: a waiter holds one token at most.
// A nil waiter takes none.
func (w *Waiter) Post() {
	if w == nil {
		return
	}
	select {
	case w.c <- struct{}{}:
	default:
	}
}

// WaitFor blocks until done reports true, re-running it after each token.
// It reports false once ctx ends: a deadline is the only way a wait ends
// without its condition.
func (w *Waiter) WaitFor(ctx context.Context, done func() bool) bool {
	for !done() {
		select {
		case <-ctx.Done():
			return false
		case <-w.c:
		}
	}
	return true
}

// peerKey is the one form of a peer address BurstReader.From reports and
// SwitchLoop.Peers is keyed by: IPv4-mapped addresses unmapped, no zone.
func peerKey(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap().WithZone(""), ap.Port())
}

// SwitchLoop is the one socket-wrapped switch worker: the frames of a
// datagram on Conn enter SW on the port its source address is cabled to, a
// burst at a time — read a datagram, drive its frames through the
// zero-alloc core.FrameBurst path, write the surviving emissions out in one
// batched send.
// cmd/ppswitchd runs one (one switch, one socket); the live fabric runs one
// per pipe over a shared switch (core.Switch's one-worker-per-pipe rule).
type SwitchLoop struct {
	Conn *net.UDPConn
	SW   *core.Switch
	// Peers resolves a datagram's source address to its frames' ingress port;
	// Addrs is where emissions for an egress port are sent ("cables").
	Peers map[netip.AddrPort]rmt.PortID
	Addrs map[rmt.PortID]*net.UDPAddr
	// Mail, when non-nil, is the control mailbox Post fills, drained
	// between bursts: the only window in which other goroutines may run
	// code against the pipes this loop owns.
	Mail chan func()
	// Rx counts accepted frames, Errors rejected datagrams (once each),
	// frames from unknown peers, oversized or rejected frames, uncabled
	// emissions and send failures, Tx (optional) forwarded frames. Atomic:
	// read from other goroutines while Run serves.
	Rx, Errors, Tx *atomic.Uint64
	// BurstHist/BatchHist, when set, observe burst and batch sizes.
	BurstHist, BatchHist *obs.Histogram
	// Ended, when set, is handed each frame that ends inside the loop — a
	// drop by SW, a refusal or an uncabled emission — as it arrived; frame
	// is valid only during the call. Forwarded frames never reach it.
	Ended func(frame []byte)
}

// end hands frame to Ended, if set.
func (l *SwitchLoop) end(frame []byte) {
	if l.Ended != nil {
		l.Ended(frame)
	}
}

// Cable registers a peer: frames arriving from addr enter the switch on
// port, and emissions for port go back to addr. Call before Run.
func (l *SwitchLoop) Cable(port rmt.PortID, addr *net.UDPAddr) {
	l.Peers[peerKey(addr.AddrPort())] = port
	l.Addrs[port] = addr
}

// Post hands fn to the loop's next drain, interrupting an idle read so
// the drain comes at once rather than with the next datagram.
func (l *SwitchLoop) Post(fn func()) {
	l.Mail <- fn
	l.Conn.SetReadDeadline(time.Now())
}

// Run serves until the socket is closed, then returns nil, or fails. The
// steady state allocates nothing.
func (l *SwitchLoop) Run() error {
	br := NewBurstReader(l.Conn, DefaultBurst)
	fb := l.SW.NewFrameBurst(DefaultBurst)
	bs := NewBatchSender(l.Conn)
	br.Hist, bs.Hist = l.BurstHist, l.BatchHist
	in := make([][]byte, 0, DefaultBurst) // the burst's frames, in Add order
	for {
		for drained := false; !drained; { // a nil Mail is always drained
			select {
			case fn := <-l.Mail:
				fn()
			default:
				drained = true
			}
		}
		count, err := br.Read()
		if ne, ok := err.(net.Error); ok && ne.Timeout() { // Post's interrupt
			l.Conn.SetReadDeadline(time.Time{})
			continue
		} else if errors.Is(err, net.ErrClosed) {
			return nil
		} else if err != nil {
			return err
		}
		if count == 0 { // a datagram the decoder rejected
			l.Errors.Add(1)
			continue
		}
		port, known := l.Peers[br.From(0)]
		fb.Reset()
		in = in[:0]
		for i := 0; i < count; i++ {
			frame := br.Frame(i)
			if !known || br.Truncated(i) {
				l.Errors.Add(1)
				l.end(frame)
				continue
			}
			l.Rx.Add(1)
			if err := fb.Add(frame, port); err != nil {
				l.Errors.Add(1)
				l.end(frame)
				continue
			}
			in = append(in, frame)
		}
		for j, r := range fb.Run() {
			if !r.OK {
				l.end(in[j])
				continue
			}
			dst, ok := l.Addrs[r.Em.Port]
			if !ok {
				l.Errors.Add(1)
				l.end(in[j])
				continue
			}
			bs.Commit(r.Em.Pkt.AppendSerialize(bs.Begin()), dst, l.Tx)
		}
		l.Errors.Add(uint64(bs.Flush()))
	}
}

// Listen binds a UDP socket at addr with its kernel buffers widened to
// absorb open-loop bursts: the default budget (~208 KiB on Linux)
// overflows under a few hundred in-flight MTU frames, dropping datagrams
// on loopback. The kernel clamps the widening to its configured maximum.
func Listen(addr string) (*net.UDPConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	conn.SetReadBuffer(1 << 21)
	conn.SetWriteBuffer(1 << 21)
	return conn, nil
}

// endpoint is a generator's or an NF daemon's socket: bound where frames
// from the switch land, sending to the switch, posting wake after each
// datagram it reads.
type endpoint struct {
	conn   *net.UDPConn
	swAddr *net.UDPAddr
	wake   *Waiter
}

// bind resolves the switch address, then binds the socket at listen.
func bind(listen, switchAddr string, wake *Waiter) (endpoint, error) {
	swAddr, err := net.ResolveUDPAddr("udp", switchAddr)
	if err != nil {
		return endpoint{}, fmt.Errorf("wire: switch addr: %w", err)
	}
	conn, err := Listen(listen)
	return endpoint{conn, swAddr, wake}, err
}

// Addr returns the bound UDP address.
func (e *endpoint) Addr() *net.UDPAddr { return e.conn.LocalAddr().(*net.UDPAddr) }

// NFDaemon is a userspace NF server. Its Server's HandleFrame is the
// daemon's byte path, and only the daemon's goroutine drives it.
type NFDaemon struct {
	endpoint
	srv *nf.Server

	Rx, Tx, Dropped, Notified atomic.Uint64

	burstHist, batchHist *obs.Histogram
}

// RegisterMetrics publishes the daemon's counters and socket-batching
// histograms (the ppnf -metrics endpoint). Call before Run.
func (d *NFDaemon) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("pp_nf_rx_frames_total", "frames received", d.Rx.Load)
	reg.Counter("pp_nf_tx_frames_total", "frames forwarded", d.Tx.Load)
	reg.Counter("pp_nf_dropped_total", "packets dropped by the NF chain", d.Dropped.Load)
	reg.Counter("pp_nf_notified_total", "explicit-drop notifications returned", d.Notified.Load)
	d.burstHist = reg.Histogram("pp_nf_rx_burst_frames", "frames drained per receive burst")
	d.batchHist = reg.Histogram("pp_nf_tx_batch_frames", "frames written per batched send")
}

// NewNFDaemon binds the socket of a daemon hosting srv at listen; its
// frames go to switchAddr, and wake is posted after each datagram it reads.
func NewNFDaemon(listen, switchAddr string, wake *Waiter, srv *nf.Server) (*NFDaemon, error) {
	if srv == nil {
		return nil, errors.New("wire: NF needs a Server")
	}
	ep, err := bind(listen, switchAddr, wake)
	if err != nil {
		return nil, err
	}
	return &NFDaemon{endpoint: ep, srv: srv}, nil
}

// Close shuts the socket, ending Run.
func (d *NFDaemon) Close() { d.conn.Close() }

// Run serves until Close, then returns nil. Frames are read a datagram at
// a time (BurstReader); each runs through the server's HandleFrame into
// the burst's shared send buffer, and the whole burst's responses go back
// to the switch together (BatchSender), so the framework path allocates
// only what the hosted NF chain itself allocates. A rejected datagram gets no
// response and no count; a frame the framework cannot parse gets no
// response and counts only as received.
func (d *NFDaemon) Run() error {
	br := NewBurstReader(d.conn, DefaultBurst)
	bs := NewBatchSender(d.conn)
	br.Hist, bs.Hist = d.burstHist, d.batchHist
	for {
		count, err := br.Read()
		if errors.Is(err, net.ErrClosed) {
			return nil
		} else if err != nil {
			return err
		}
		var dropped uint64
		for i := 0; i < count; i++ {
			d.Rx.Add(1)
			if br.Truncated(i) {
				continue // no response, like an unparseable frame
			}
			switch out, res, err := d.srv.HandleFrame(br.Frame(i), bs.Begin()); {
			case err != nil:
				// Unparseable: no response, and not Dropped — that counter
				// is the chain's verdicts.
			case res.Notification:
				bs.Commit(out, d.swAddr, &d.Notified)
			case res.Out != nil:
				bs.Commit(out, d.swAddr, &d.Tx)
			default:
				dropped++
			}
		}
		bs.Flush()
		// Drops count once the burst's responses are sent: a frame dropped
		// here is never fated ahead of an earlier frame's response.
		d.Dropped.Add(dropped)
		d.wake.Post()
	}
}

// Generator sends frames to the switch and counts the frames that return.
type Generator struct {
	endpoint
	done chan struct{} // closed when the receive loop exits

	Sent, Received, ReceivedBytes atomic.Uint64
}

// NewGenerator binds the generator socket at listen and starts its receive
// loop, which runs until Close and posts wake after each datagram it
// counts. Frames go to switchAddr.
func NewGenerator(listen, switchAddr string, wake *Waiter) (*Generator, error) {
	ep, err := bind(listen, switchAddr, wake)
	if err != nil {
		return nil, err
	}
	g := &Generator{endpoint: ep, done: make(chan struct{})}
	go g.recvLoop()
	return g, nil
}

// Close shuts the socket and returns once the receive loop has exited.
func (g *Generator) Close() {
	g.conn.Close()
	<-g.done
}

// recvLoop counts returned frames and their bytes, a datagram at a time;
// an oversized frame or a rejected datagram is not counted.
func (g *Generator) recvLoop() {
	defer close(g.done)
	br := NewBurstReader(g.conn, DefaultBurst)
	for {
		count, err := br.Read()
		if err != nil {
			return
		}
		for i := 0; i < count; i++ {
			if br.Truncated(i) {
				continue
			}
			g.ReceivedBytes.Add(uint64(len(br.Frame(i))))
			g.Received.Add(1)
		}
		g.wake.Post()
	}
}

// BatchSender returns a batched sender over the generator's socket; pair
// it with SwitchUDPAddr and the Sent counter for wire-rate blasting.
func (g *Generator) BatchSender() *BatchSender { return NewBatchSender(g.conn) }

// SwitchUDPAddr returns the resolved switch address frames go to.
func (g *Generator) SwitchUDPAddr() *net.UDPAddr { return g.swAddr }
