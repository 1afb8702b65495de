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

// mailWake bounds how long a SwitchLoop with a mailbox blocks in an idle
// read before draining the mailbox: control pushes and telemetry barriers
// land within this latency even on a quiet pipe.
const mailWake = 2 * time.Millisecond

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
	// Mail, when non-nil, is a control mailbox drained between bursts —
	// the only window in which other goroutines may run code against the
	// pipes this loop owns — and at least every mailWake on an idle loop.
	Mail chan func()
	// Rx counts accepted frames, Errors rejected datagrams (once each),
	// frames from unknown peers, oversized or rejected frames, uncabled
	// emissions and send failures, Tx (optional) forwarded frames. Atomic:
	// read from other goroutines while Run serves.
	Rx, Errors, Tx *atomic.Uint64
	// BurstHist/BatchHist, when set, observe burst and batch sizes.
	BurstHist, BatchHist *obs.Histogram
}

// Cable registers a peer: frames arriving from addr enter the switch on
// port, and emissions for port go back to addr. Call before Run.
func (l *SwitchLoop) Cable(port rmt.PortID, addr *net.UDPAddr) {
	l.Peers[peerKey(addr.AddrPort())] = port
	l.Addrs[port] = addr
}

// Run serves until the socket is closed or fails, returning nil when ctx
// was cancelled first. The steady state allocates nothing.
func (l *SwitchLoop) Run(ctx context.Context) error {
	br := NewBurstReader(l.Conn, DefaultBurst)
	fb := l.SW.NewFrameBurst(DefaultBurst)
	bs := NewBatchSender(l.Conn)
	br.Hist, bs.Hist = l.BurstHist, l.BatchHist
	for {
		if l.Mail != nil {
			for drained := false; !drained; {
				select {
				case fn := <-l.Mail:
					fn()
				default:
					drained = true
				}
			}
			l.Conn.SetReadDeadline(time.Now().Add(mailWake))
		}
		count, err := br.Read()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() && l.Mail != nil {
				continue
			}
			return err
		}
		if count == 0 { // a datagram the decoder rejected
			l.Errors.Add(1)
			continue
		}
		port, known := l.Peers[br.From(0)]
		fb.Reset()
		for i := 0; i < count; i++ {
			if !known || br.Truncated(i) {
				l.Errors.Add(1)
				continue
			}
			l.Rx.Add(1)
			if err := fb.Add(br.Frame(i), port); err != nil {
				l.Errors.Add(1)
			}
		}
		for _, r := range fb.Run() {
			if !r.OK {
				continue
			}
			dst, ok := l.Addrs[r.Em.Port]
			if !ok {
				l.Errors.Add(1)
				continue
			}
			bs.Commit(r.Em.Pkt.AppendSerialize(bs.Begin()), dst, l.Tx)
		}
		l.Errors.Add(uint64(bs.Flush()))
	}
}

// TuneUDP widens a socket's kernel buffers to absorb open-loop bursts:
// the default budget (~208 KiB on Linux) overflows under a few hundred
// in-flight MTU frames, dropping datagrams on loopback. Errors are
// ignored — the kernel clamps to its configured maximum.
func TuneUDP(conn *net.UDPConn) {
	conn.SetReadBuffer(1 << 21)
	conn.SetWriteBuffer(1 << 21)
}

// NFConfig wires an NF server daemon.
type NFConfig struct {
	// Listen is the UDP bind address.
	Listen string
	// SwitchAddr is where processed frames return.
	SwitchAddr string
	// Server is the NF framework the daemon hosts; its HandleFrame is the
	// daemon's byte path, and only the daemon's goroutine drives it.
	Server *nf.Server
}

// NFDaemon is a userspace NF server.
type NFDaemon struct {
	srv    *nf.Server
	conn   *net.UDPConn
	swAddr *net.UDPAddr

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

// NewNFDaemon binds the server socket.
func NewNFDaemon(cfg NFConfig) (*NFDaemon, error) {
	if cfg.Server == nil {
		return nil, errors.New("wire: NF needs a Server")
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	TuneUDP(conn)
	swAddr, err := net.ResolveUDPAddr("udp", cfg.SwitchAddr)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: switch addr: %w", err)
	}
	return &NFDaemon{srv: cfg.Server, conn: conn, swAddr: swAddr}, nil
}

// Addr returns the bound UDP address.
func (d *NFDaemon) Addr() string { return d.conn.LocalAddr().String() }

// Run serves until ctx is cancelled. Frames are read a datagram at a time
// (BurstReader); each runs through the server's HandleFrame into the
// burst's shared send buffer, and the whole burst's responses go back to
// the switch together (BatchSender), so the framework path allocates only
// what the hosted NF chain itself allocates. A rejected datagram gets no
// response and no count; a frame the framework cannot parse gets no
// response and counts only as received.
func (d *NFDaemon) Run(ctx context.Context) error {
	go func() {
		<-ctx.Done()
		d.conn.Close()
	}()
	br := NewBurstReader(d.conn, DefaultBurst)
	bs := NewBatchSender(d.conn)
	br.Hist, bs.Hist = d.burstHist, d.batchHist
	for {
		count, err := br.Read()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
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
				d.Dropped.Add(1)
			}
		}
		bs.Flush()
	}
}

// GenConfig wires a traffic generator endpoint.
type GenConfig struct {
	// Listen is the UDP bind address (frames return here).
	Listen string
	// SwitchAddr is the switch's socket.
	SwitchAddr string
}

// Generator sends frames to the switch and counts the frames that return.
type Generator struct {
	conn   *net.UDPConn
	swAddr *net.UDPAddr

	Sent, Received, ReceivedBytes atomic.Uint64
}

// NewGenerator binds the generator socket and starts its receive loop.
func NewGenerator(ctx context.Context, cfg GenConfig) (*Generator, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	TuneUDP(conn)
	swAddr, err := net.ResolveUDPAddr("udp", cfg.SwitchAddr)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: switch addr: %w", err)
	}
	g := &Generator{conn: conn, swAddr: swAddr}
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	go g.recvLoop()
	return g, nil
}

// Addr returns the bound UDP address.
func (g *Generator) Addr() string { return g.conn.LocalAddr().String() }

// recvLoop counts returned frames and their bytes, a datagram at a time;
// an oversized frame or a rejected datagram is not counted.
func (g *Generator) recvLoop() {
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
	}
}

// BatchSender returns a batched sender over the generator's socket; pair
// it with SwitchUDPAddr and the Sent counter for wire-rate blasting.
func (g *Generator) BatchSender() *BatchSender { return NewBatchSender(g.conn) }

// SwitchUDPAddr returns the resolved switch address frames go to.
func (g *Generator) SwitchUDPAddr() *net.UDPAddr { return g.swAddr }

// WaitReceived polls until n frames have been received or the timeout
// elapses, returning the count seen.
func (g *Generator) WaitReceived(n uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if g.Received.Load() >= n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return g.Received.Load()
}
