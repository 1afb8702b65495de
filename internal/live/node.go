package live

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// mailWake bounds how long an idle pipe worker blocks in a read before
// draining its control mailbox: control pushes and telemetry barriers
// land within this latency even on a quiet pipe.
const mailWake = 2 * time.Millisecond

// pipeWorker is one pipe's socket and its single-owner state: the
// ingress resolution and egress cabling maps, and the control mailbox
// drained between bursts. The worker goroutine is the only toucher of
// the pipe's core state (programs, burst slots, counter shards): the
// one-worker-per-pipe rule core.Switch documents.
type pipeWorker struct {
	pipe  int
	conn  *net.UDPConn
	peers map[string]rmt.PortID
	addrs map[rmt.PortID]*net.UDPAddr
	mail  chan func()
}

// switchNode is one fabric switch running live: per-pipe worker sockets
// over the shared core.Switch.
type switchNode struct {
	fs      *fabricSwitch
	workers []*pipeWorker
	// quiesceMu serializes quiesce callers (telemetry vs. final collect)
	// so two barriers never interleave their per-worker parks.
	quiesceMu sync.Mutex
	// rxFrames counts datagrams accepted across workers; the runner polls
	// it to detect fabric quiescence.
	rxFrames atomic.Uint64
	// errs counts uncabled emissions and send failures.
	errs atomic.Uint64
	wg   sync.WaitGroup

	// burstHist/batchHist, when metrics are registered, observe each
	// worker's receive-burst and send-batch sizes (shared across the
	// node's pipe workers; the histogram is atomic).
	burstHist, batchHist *obs.Histogram
}

// newSwitchNode binds one loopback socket per pipe in use. Workers are
// not started until start (peer maps are filled in between, once every
// socket in the fabric is bound).
func newSwitchNode(fs *fabricSwitch) (*switchNode, error) {
	n := &switchNode{fs: fs}
	for _, pipe := range fs.pipesInUse() {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			n.close()
			return nil, fmt.Errorf("live: bind %s pipe %d: %w", fs.name, pipe, err)
		}
		wire.TuneUDP(conn)
		n.workers = append(n.workers, &pipeWorker{
			pipe:  pipe,
			conn:  conn,
			peers: make(map[string]rmt.PortID),
			addrs: make(map[rmt.PortID]*net.UDPAddr),
			mail:  make(chan func(), 16),
		})
	}
	return n, nil
}

// worker returns the pipe worker serving port's pipe.
func (n *switchNode) worker(port rmt.PortID) *pipeWorker {
	pipe := core.PipeOfPort(port)
	for _, pw := range n.workers {
		if pw.pipe == pipe {
			return pw
		}
	}
	return nil
}

// addr returns the socket address frames for port must be sent to.
func (n *switchNode) addr(port rmt.PortID) *net.UDPAddr {
	if pw := n.worker(port); pw != nil {
		return pw.conn.LocalAddr().(*net.UDPAddr)
	}
	return nil
}

// cable registers a peer: frames arriving on pw's socket from peerAddr
// enter the switch on port, and emissions for port go back to peerAddr.
func (n *switchNode) cable(port rmt.PortID, peerAddr *net.UDPAddr) error {
	pw := n.worker(port)
	if pw == nil {
		return fmt.Errorf("live: %s has no worker for port %d", n.fs.name, port)
	}
	pw.peers[peerAddr.String()] = port
	pw.addrs[port] = peerAddr
	return nil
}

// start launches the pipe workers.
func (n *switchNode) start(ctx context.Context, burst int) {
	for _, pw := range n.workers {
		n.wg.Add(1)
		go n.runPipe(ctx, pw, burst)
	}
}

// runPipe is one pipe's worker loop: drain the control mailbox, read a
// burst, drive it through the zero-alloc FrameBurst path, and flush the
// emissions in one batched send.
func (n *switchNode) runPipe(ctx context.Context, pw *pipeWorker, burst int) {
	defer n.wg.Done()
	br := wire.NewBurstReader(pw.conn, burst)
	fb := n.fs.sw.NewFrameBurst(burst)
	bs := wire.NewBatchSender(pw.conn)
	br.Hist, bs.Hist = n.burstHist, n.batchHist
	for {
		for {
			select {
			case fn := <-pw.mail:
				fn()
				continue
			default:
			}
			break
		}
		// A short deadline keeps an idle worker responsive to its mailbox;
		// a busy worker never hits it.
		pw.conn.SetReadDeadline(time.Now().Add(mailWake))
		count, err := br.Read()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		fb.Reset()
		for i := 0; i < count; i++ {
			port, ok := pw.peers[br.From(i).String()]
			if !ok {
				n.errs.Add(1)
				continue
			}
			n.rxFrames.Add(1)
			if err := fb.Add(br.Frame(i), port); err != nil {
				n.errs.Add(1)
			}
		}
		for _, r := range fb.Run() {
			if !r.OK {
				continue
			}
			dst, ok := pw.addrs[r.Em.Port]
			if !ok {
				n.errs.Add(1)
				continue
			}
			bs.Commit(r.Em.Pkt.AppendSerialize(bs.Begin()), dst, nil)
		}
		n.errs.Add(uint64(bs.Flush()))
	}
}

// quiesce parks every worker between bursts, runs fn while none is
// touching the switch, then releases them. This is the only safe window
// for reading merged counters or rewriting program tables that belong to
// other pipes.
func (n *switchNode) quiesce(fn func()) {
	n.quiesceMu.Lock()
	defer n.quiesceMu.Unlock()
	var parked, release sync.WaitGroup
	release.Add(1)
	for _, pw := range n.workers {
		parked.Add(1)
		pw.mail <- func() {
			parked.Done()
			release.Wait()
		}
	}
	parked.Wait()
	fn()
	release.Done()
}

// close shuts the sockets (stopping the workers) and waits for them.
func (n *switchNode) close() {
	for _, pw := range n.workers {
		pw.conn.Close()
	}
	n.wg.Wait()
}

// livePlant implements ctrl.Plant over the fabric's switch nodes: every
// read or push quiesces the owning node's workers first, so the
// controller never races the dataplane.
type livePlant struct {
	nodes []*switchNode
}

func (p *livePlant) ReadTelemetry(t *ctrl.Telemetry) {
	t.Switches = t.Switches[:0]
	t.Links = t.Links[:0]
	for _, n := range p.nodes {
		st := ctrl.SwitchTelem{Name: n.fs.name}
		n.quiesce(func() {
			for _, prog := range n.fs.progs {
				st.Premature += prog.C.PrematureEvictions.Value()
				st.Occupancy += prog.Occupancy()
				st.Slots += prog.Config().Slots
			}
		})
		t.Switches = append(t.Switches, st)
	}
}

func (p *livePlant) node(sw string) *switchNode {
	for _, n := range p.nodes {
		if n.fs.name == sw {
			return n
		}
	}
	return nil
}

func (p *livePlant) PushExpiry(sw string, expiry uint32) {
	if n := p.node(sw); n != nil {
		n.quiesce(func() {
			for _, prog := range n.fs.progs {
				prog.SetMaxExpiry(expiry)
			}
		})
	}
}

func (p *livePlant) PushTransitSplit(sw string, enabled bool) {
	// The live geometries park at the edge only — no transit programs to
	// demote — but the push is still applied under quiescence so the
	// protocol path is exercised end to end.
	if n := p.node(sw); n != nil {
		n.quiesce(func() {})
		_ = enabled
	}
}

func (p *livePlant) PushGroup(group string, members []string) {
	// No ECMP groups are configured in the live fabric; the message is
	// carried by the protocol but has nothing to rewrite.
}

var _ ctrl.Plant = (*livePlant)(nil)
