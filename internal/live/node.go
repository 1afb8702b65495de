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
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// mailWake bounds how long an idle pipe worker blocks in a read before
// draining its control mailbox: control pushes and telemetry barriers
// land within this latency even on a quiet pipe.
const mailWake = 2 * time.Millisecond

// pipeWorker is one pipe's socket-switch loop (wire.SwitchLoop: the
// socket, the ingress resolution and egress cabling maps, and the control
// mailbox drained between bursts). Its goroutine is the only toucher of
// the pipe's core state (programs, burst slots, counter shards): the
// one-worker-per-pipe rule core.Switch documents.
type pipeWorker struct {
	pipe int
	wire.SwitchLoop
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
}

// newSwitchNode binds one loopback socket per pipe in use. Workers are
// not started until start (peer maps are filled in between, once every
// socket in the fabric is bound).
func newSwitchNode(fs *fabricSwitch, burst int) (*switchNode, error) {
	n := &switchNode{fs: fs}
	for _, pipe := range fs.pipesInUse() {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			n.close()
			return nil, fmt.Errorf("live: bind %s pipe %d: %w", fs.name, pipe, err)
		}
		wire.TuneUDP(conn)
		n.workers = append(n.workers, &pipeWorker{pipe: pipe, SwitchLoop: wire.SwitchLoop{
			Conn:  conn,
			SW:    fs.sw,
			Burst: burst,
			Peers: make(map[string]rmt.PortID),
			Addrs: make(map[rmt.PortID]*net.UDPAddr),
			// 16 pending control closures: quiesce posts one per caller and
			// callers are serialized, so the mailbox never fills.
			Mail:   make(chan func(), 16),
			Wake:   mailWake,
			Rx:     &n.rxFrames,
			Errors: &n.errs,
		}})
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
		return pw.Conn.LocalAddr().(*net.UDPAddr)
	}
	return nil
}

// cable registers a peer: frames arriving on the port's pipe socket from
// peerAddr enter the switch on port, and emissions for port go back to
// peerAddr.
func (n *switchNode) cable(port rmt.PortID, peerAddr *net.UDPAddr) error {
	pw := n.worker(port)
	if pw == nil {
		return fmt.Errorf("live: %s has no worker for port %d", n.fs.name, port)
	}
	pw.Cable(port, peerAddr)
	return nil
}

// start launches the pipe workers; they stop when close shuts their
// sockets.
func (n *switchNode) start(ctx context.Context) {
	for _, pw := range n.workers {
		n.wg.Add(1)
		go func(pw *pipeWorker) {
			defer n.wg.Done()
			pw.Run(ctx) // returns once the socket closes; nothing to report
		}(pw)
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
		pw.Mail <- func() {
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
		pw.Conn.Close()
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
