package live

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// switchNode is one graph switch running live: per-pipe worker sockets
// over the shared core.Switch.
type switchNode struct {
	name string
	// workers holds one socket-switch loop (wire.SwitchLoop: the socket,
	// the ingress resolution and egress cabling maps, and the control
	// mailbox drained between bursts) per pipe with a cabled port, byPipe
	// the same loops by pipe index. A loop's goroutine is the only toucher
	// of its pipe's core state (programs, burst slots, counter shards): the
	// one-worker-per-pipe rule core.Switch documents.
	workers []*wire.SwitchLoop
	byPipe  [core.NumPipes]*wire.SwitchLoop
	// quiesceMu serializes quiesce callers (telemetry vs. final collect)
	// so two barriers never interleave their per-worker parks.
	quiesceMu sync.Mutex
	// rxFrames counts frames accepted across workers.
	rxFrames atomic.Uint64
	// errs counts the workers' SwitchLoop.Errors: rejected datagrams,
	// unknown peers, uncabled emissions and send failures.
	errs atomic.Uint64
	wg   sync.WaitGroup
}

// newSwitchNode binds one loopback socket per pipe with a cabled port,
// each worker handing ended every frame that ends inside it. Workers are
// not started until start (peer maps are filled in between, once every
// socket in the fabric is bound).
func newSwitchNode(name string, sw *core.Switch, ports [core.NumPorts]sim.Peer, ended func([]byte)) (*switchNode, error) {
	n := &switchNode{name: name}
	for pipe := 0; pipe < core.NumPipes; pipe++ {
		inUse := false
		for _, peer := range ports[pipe*core.PortsPerPipe : (pipe+1)*core.PortsPerPipe] {
			inUse = inUse || peer.Cabled
		}
		if !inUse {
			continue
		}
		conn, err := wire.Listen("127.0.0.1:0")
		if err != nil {
			n.close()
			return nil, fmt.Errorf("live: bind %s pipe %d: %w", name, pipe, err)
		}
		n.byPipe[pipe] = &wire.SwitchLoop{
			Conn:  conn,
			SW:    sw,
			Peers: make(map[netip.AddrPort]rmt.PortID),
			Addrs: make(map[rmt.PortID]*net.UDPAddr),
			// 16 pending control closures: quiesce posts one per caller and
			// callers are serialized, so the mailbox never fills.
			Mail:   make(chan func(), 16),
			Rx:     &n.rxFrames,
			Errors: &n.errs,
			Ended:  ended,
		}
		n.workers = append(n.workers, n.byPipe[pipe])
	}
	return n, nil
}

// addr returns the socket address frames for a cabled port must be sent
// to.
func (n *switchNode) addr(port rmt.PortID) *net.UDPAddr {
	return n.byPipe[core.PipeOfPort(port)].Conn.LocalAddr().(*net.UDPAddr)
}

// cable registers a peer: frames arriving on the port's pipe socket from
// peerAddr enter the switch on port, and emissions for port go back to
// peerAddr. The graph's cabling decided which pipes have a worker, so a
// port it cables always has one.
func (n *switchNode) cable(port rmt.PortID, peerAddr *net.UDPAddr) {
	n.byPipe[core.PipeOfPort(port)].Cable(port, peerAddr)
}

// start launches the pipe workers; they stop when close shuts their
// sockets.
func (n *switchNode) start() {
	for _, pw := range n.workers {
		n.wg.Add(1)
		go func(pw *wire.SwitchLoop) {
			defer n.wg.Done()
			pw.Run() // returns once the socket closes; nothing to report
		}(pw)
	}
}

// quiesce parks every worker between bursts, runs fn while none is
// touching the switch, then releases them. While the workers run, this
// is the only safe window for reading merged counters or rewriting
// program tables that belong to other pipes.
func (n *switchNode) quiesce(fn func()) {
	n.quiesceMu.Lock()
	defer n.quiesceMu.Unlock()
	var parked, release sync.WaitGroup
	release.Add(1)
	for _, pw := range n.workers {
		parked.Add(1)
		pw.Post(func() {
			parked.Done()
			release.Wait()
		})
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
