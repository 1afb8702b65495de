package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// liveFabric is the graph realised on sockets: one switchNode per graph
// switch and, per flow, a source, a sink (a generator that only receives)
// and an NF daemon.
type liveFabric struct {
	f     *fabric
	sws   []*core.Switch
	nodes []*switchNode
	srcs  []source
	sinks []*wire.Generator
	nfs   []*wire.NFDaemon
	// ended[i] counts flow i's frames that ended inside a switch, its
	// consumed explicit-drop notifications included.
	ended []atomic.Uint64
	// wait[i] is woken by flow i's sink and NF daemon and by its frames
	// ending in a switch; the flow's sender blocks on it.
	wait   []*wire.Waiter
	nfRuns sync.WaitGroup
}

// source is one flow's sending side: a fresh generator of the flow's
// workload, each frame serialized as it is sent straight into the batch
// of the generator socket. One goroutine drives a source.
type source struct {
	gen   *wire.Generator
	tg    *trafficgen.Generator
	bs    *wire.BatchSender
	bytes uint64 // frame bytes queued, Ethernet header to payload end
	// drops is the NF drops open counts. seen, a later reading of the
	// NF's Dropped, joins it once answered — the responses the NF had
	// sent by then — are all back, delivered or ended.
	drops, seen, answered uint64
}

// newGenerator binds a generator (or sink) against the pipe socket of the
// port it hangs off, and cables it there.
func (lf *liveFabric) newGenerator(at sim.PortRef, wake *wire.Waiter) (*wire.Generator, error) {
	n := lf.nodes[at.Switch]
	g, err := wire.NewGenerator("127.0.0.1:0", n.addr(at.Port).String(), wake)
	if err == nil {
		n.cable(at.Port, g.Addr())
	}
	return g, err
}

// bringUp realises the graph: it loads every switch, binds every socket
// and cables them together. Workers and daemons are started; close stops
// them.
func bringUp(f *fabric, metrics *obs.Registry) (*liveFabric, error) {
	lf := &liveFabric{f: f, ended: make([]atomic.Uint64, len(f.g.Flows))}
	ok := false
	defer func() {
		if !ok {
			lf.close()
		}
	}()
	var err error
	if lf.sws, err = f.g.RealiseAll(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	peers := f.g.Peers()
	for i, sw := range lf.sws {
		n, err := newSwitchNode(f.g.Switches[i].Name, sw, peers[i], lf.end)
		if err != nil {
			return nil, err
		}
		lf.nodes = append(lf.nodes, n)
	}
	// Endpoints: every generator, sink, and NF binds against the pipe
	// socket its port belongs to.
	for i := range f.g.Flows {
		fl := &f.g.Flows[i]
		wake := wire.NewWaiter()
		lf.wait = append(lf.wait, wake)
		// Each endpoint joins lf as it binds, so close reaches it.
		gen, err := lf.newGenerator(fl.Gen.At, nil)
		if err != nil {
			return nil, err
		}
		lf.srcs = append(lf.srcs, source{gen: gen, tg: trafficgen.New(fl.Traffic), bs: gen.BatchSender()})
		sink, err := lf.newGenerator(fl.Sink.At, wake)
		if err != nil {
			return nil, err
		}
		lf.sinks = append(lf.sinks, sink)
		n := lf.nodes[fl.NF.At.Switch]
		nfd, err := wire.NewNFDaemon("127.0.0.1:0", n.addr(fl.NF.At.Port).String(), wake, f.newServer(fl))
		if err != nil {
			return nil, err
		}
		lf.nfs = append(lf.nfs, nfd)
		n.cable(fl.NF.At.Port, nfd.Addr())
	}
	for _, c := range f.g.Cables {
		a, b := lf.nodes[c.A.Switch], lf.nodes[c.B.Switch]
		a.cable(c.A.Port, b.addr(c.B.Port))
		b.cable(c.B.Port, a.addr(c.A.Port))
	}
	if metrics != nil {
		lf.registerMetrics(metrics)
	}
	for _, n := range lf.nodes {
		n.start()
	}
	for _, nfd := range lf.nfs {
		lf.nfRuns.Add(1)
		go func() {
			defer lf.nfRuns.Done()
			nfd.Run()
		}()
	}
	ok = true
	return lf, nil
}

// registerMetrics publishes the fabric's atomically maintained state:
// per-node ingress/error counts and burst/batch histograms, per-NF
// daemon counters, and per-generator send/receive totals. Must run
// before workers start (the histograms are wired into each worker's
// reader/sender at start).
func (lf *liveFabric) registerMetrics(reg *obs.Registry) {
	for _, n := range lf.nodes {
		lbl := fmt.Sprintf("{switch=%q}", n.name)
		reg.Counter("pp_live_rx_frames_total"+lbl, "frames accepted by the node's workers", n.rxFrames.Load)
		reg.Counter("pp_live_errors_total"+lbl, "rejected datagrams and frames, uncabled emissions and send failures", n.errs.Load)
		burst := reg.Histogram("pp_live_rx_burst_frames"+lbl, "frames drained per receive burst")
		batch := reg.Histogram("pp_live_tx_batch_frames"+lbl, "frames written per batched send")
		for _, pw := range n.workers {
			pw.BurstHist, pw.BatchHist = burst, batch
		}
	}
	for i, nfd := range lf.nfs {
		lbl := fmt.Sprintf(`{nf="%d"}`, i)
		reg.Counter("pp_live_nf_rx_total"+lbl, "frames received by the NF daemon", nfd.Rx.Load)
		reg.Counter("pp_live_nf_tx_total"+lbl, "frames forwarded by the NF daemon", nfd.Tx.Load)
		reg.Counter("pp_live_nf_dropped_total"+lbl, "packets dropped by the NF chain", nfd.Dropped.Load)
		reg.Counter("pp_live_nf_notified_total"+lbl, "explicit-drop notifications returned", nfd.Notified.Load)
	}
	for i := range lf.srcs {
		lbl := fmt.Sprintf(`{gen="%d"}`, i)
		reg.Counter("pp_live_gen_sent_total"+lbl, "frames sent by the generator", lf.srcs[i].gen.Sent.Load)
		reg.Counter("pp_live_gen_received_total"+lbl, "frames delivered to the generator's sink", lf.sinks[i].Received.Load)
	}
}

// close shuts every socket down and returns once every goroutine of the
// fabric has exited; a second call finds nothing left to stop.
func (lf *liveFabric) close() {
	for _, n := range lf.nodes {
		n.close()
	}
	for i := range lf.srcs {
		lf.srcs[i].gen.Close()
	}
	for _, sink := range lf.sinks {
		sink.Close()
	}
	for _, nfd := range lf.nfs {
		nfd.Close()
	}
	lf.nfRuns.Wait()
}

// end books a frame that ended inside a switch on the flow its Ethernet
// addresses name. A frame naming no flow is booked nowhere, so the run
// ends at its deadline.
func (lf *liveFabric) end(frame []byte) {
	if i, ok := lf.f.flowOf(frame); ok {
		lf.ended[i].Add(1)
		lf.wait[i].Post()
	}
}

// open returns how many of flow i's sent frames have no fate yet: not
// delivered, not ended in a switch (a notified frame ends where its
// notification is consumed), not dropped by its NF. A drop is counted
// once every response the NF sent before it is back, delivered or ended:
// otherwise the drop could let a frame in that re-claims the slot of a
// header still on its way back, which the reference walk never does.
// Only flow i's sender calls it.
func (lf *liveFabric) open(i int) int64 {
	src, nfd := &lf.srcs[i], lf.nfs[i]
	back := lf.sinks[i].Received.Load() + lf.ended[i].Load()
	for back >= src.answered {
		src.drops = src.seen
		// The NF counts a burst's drops after sending its responses, so
		// answered covers every response sent before seen's drops.
		src.seen = nfd.Dropped.Load()
		src.answered = nfd.Tx.Load() + nfd.Notified.Load()
		if src.seen == src.drops {
			break
		}
	}
	return int64(src.gen.Sent.Load() - back - src.drops)
}

// minPeriodNs is the shortest controller tick of a live run: every tick
// parks each switch's workers, so faster ticks would starve the dataplane.
const minPeriodNs = int64(time.Millisecond)

// Run resolves and validates the description, brings its fabric up on
// loopback sockets and drives the workload through it, returning the
// measured result. Every flow's sender keeps at most Window frames
// without a fate in flight, then waits for its books to balance; with
// Window ≤ Parking.Slots no slot is re-claimed before its header returns,
// so the counters match ReferenceRun (compare with Parity). With
// s.Control enabled a ctrl.Controller calls the graph's sim.Plant
// directly, ticking at Control.PeriodNs wall-clock but no faster than
// every minPeriodNs; the plant applies every telemetry read and push under
// the owning node's quiesce barrier, and the controller's report lands in
// Result.Control.
func Run(ctx context.Context, t Topology, s sim.Sections, w Wiring) (*Result, error) {
	f, err := build(t, s)
	if err != nil {
		return nil, err
	}
	t, s = f.topo, f.sec
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	lf, err := bringUp(f, w.Metrics)
	if err != nil {
		return nil, err
	}
	defer lf.close()

	res := &Result{Geometry: t.Geometry, Parking: s.Parking.Enabled()}

	// Optional controller over the one Plant, with the socket fabric's
	// quiet window: every read or push parks the owning node's workers
	// first, so the controller never races the dataplane. There are no
	// links to report on.
	ctlCtx, stopTicks := context.WithCancel(ctx)
	var ctlDone sync.WaitGroup
	stopControl := func() { stopTicks(); ctlDone.Wait() }
	defer stopControl()
	var controller *ctrl.Controller
	if s.Control.Enabled() {
		cc := s.Control
		cc.PeriodNs = max(cc.PeriodNs, minPeriodNs)
		controller = ctrl.New(cc, sim.NewPlant(f.g, lf.sws, func(sw int, fn func()) { lf.nodes[sw].quiesce(fn) }, nil), nil)
		ctlDone.Add(1)
		go func() {
			defer ctlDone.Done()
			tick := time.NewTicker(time.Duration(cc.PeriodNs))
			defer tick.Stop()
			// Tick n is stamped n*PeriodNs, the simulator's clock domain, so
			// live decision timelines line up with sim traces.
			for n := int64(1); ; n++ {
				select {
				case <-ctlCtx.Done():
					return
				case <-tick.C:
					controller.Tick(n * cc.PeriodNs)
				}
			}
		}()
	}

	begin := time.Now()
	errs := make([]error, len(lf.srcs))
	var wg sync.WaitGroup
	for g := range lf.srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = lf.blast(ctx, g)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res.ElapsedNs = time.Since(begin).Nanoseconds()
	stopControl()
	// Every frame has its fate; closing the fabric joins every worker and
	// daemon, so their counters are final and theirs to read here.
	lf.close()
	for i, sink := range lf.sinks {
		nfd := lf.nfs[i]
		res.Sent += lf.srcs[i].gen.Sent.Load()
		res.SentBytes += lf.srcs[i].bytes
		res.Delivered += sink.Received.Load()
		res.DeliveredBytes += sink.ReceivedBytes.Load()
		res.NFReceived += nfd.Rx.Load()
		res.NFDropped += nfd.Dropped.Load()
		res.NFNotified += nfd.Notified.Load()
	}
	for _, sw := range lf.sws {
		res.Counters.add(sw)
	}
	if res.ElapsedNs > 0 {
		secs := float64(res.ElapsedNs) / 1e9
		res.PPS = float64(res.Delivered) / secs
		res.Gbps = float64(res.DeliveredBytes) * 8 / secs / 1e9
	}
	if controller != nil {
		res.Control = controller.Snapshot()
	}
	return res, nil
}

// blast is one generator's sender: batched sends windowed by its flow's
// books, so a full window waits until frames have their fate, then one
// wait for the books to balance.
func (lf *liveFabric) blast(ctx context.Context, g int) error {
	src := &lf.srcs[g]
	frames, window := lf.f.topo.Frames, int64(lf.f.topo.Window)
	var open int64
	for sent := 0; sent < frames; {
		if !lf.wait[g].WaitFor(ctx, func() bool { open = lf.open(g); return open < window }) {
			return fmt.Errorf("live: generator %d timed out at %d/%d frames with %d unaccounted", g, sent, frames, open)
		}
		n := min(int(window-open), wire.DefaultBurst, frames-sent)
		for range n {
			out := src.bs.Begin()
			frame := src.tg.AppendFrame(out)
			src.bytes += uint64(len(frame) - len(out))
			src.bs.Commit(frame, src.gen.SwitchUDPAddr(), &src.gen.Sent)
		}
		if src.bs.Flush() != 0 {
			return fmt.Errorf("live: send of frame %d of generator %d failed", sent, g)
		}
		sent += n
	}
	if !lf.wait[g].WaitFor(ctx, func() bool { open = lf.open(g); return open == 0 }) {
		return fmt.Errorf("live: timed out settling: flow %d has %d of %d sent frames unaccounted", g, open, frames)
	}
	return nil
}
