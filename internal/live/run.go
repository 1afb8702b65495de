package live

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
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
	// fwd[i] and ret[i] count the switches flow i's frames cross from the
	// generator to the NF and from the NF to the sink.
	fwd, ret []uint64
}

// source is one flow's sending side: a fresh generator of the flow's
// workload, each frame serialized as it is sent straight into the batch
// of the generator socket. One goroutine drives a source.
type source struct {
	gen   *wire.Generator
	tg    *trafficgen.Generator
	bs    *wire.BatchSender
	bytes uint64 // frame bytes queued, Ethernet header to payload end
}

// queue serializes the flow's next frame into the batch; Flush sends it.
func (s *source) queue() {
	out := s.bs.Begin()
	frame := s.tg.AppendFrame(out)
	s.bytes += uint64(len(frame) - len(out))
	s.bs.Commit(frame, s.gen.SwitchUDPAddr(), &s.gen.Sent)
}

// cableEndpoint cables the endpoint bound at addr to its switch port.
func (lf *liveFabric) cableEndpoint(at sim.PortRef, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err == nil {
		lf.nodes[at.Switch].cable(at.Port, ua)
	}
	return err
}

// newGenerator binds a generator (or sink) against the pipe socket of the
// port it hangs off.
func (lf *liveFabric) newGenerator(ctx context.Context, at sim.PortRef) (*wire.Generator, error) {
	g, err := wire.NewGenerator(ctx, wire.GenConfig{
		Listen:     "127.0.0.1:0",
		SwitchAddr: lf.nodes[at.Switch].addr(at.Port).String(),
	})
	if err != nil {
		return nil, err
	}
	return g, lf.cableEndpoint(at, g.Addr())
}

// bringUp realises the graph: it loads every switch, binds every socket
// and cables them together. Workers and daemons are started; teardown
// happens via ctx cancellation plus close().
func bringUp(ctx context.Context, f *fabric, metrics *obs.Registry) (*liveFabric, error) {
	lf := &liveFabric{f: f}
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
		n, err := newSwitchNode(f.g.Switches[i].Name, sw, peers[i])
		if err != nil {
			return nil, err
		}
		lf.nodes = append(lf.nodes, n)
	}
	// Endpoints: every generator, sink, and NF binds against the pipe
	// socket its port belongs to.
	for i := range f.g.Flows {
		fl := &f.g.Flows[i]
		gen, err := lf.newGenerator(ctx, fl.Gen.At)
		if err != nil {
			return nil, err
		}
		sink, err := lf.newGenerator(ctx, fl.Sink.At)
		if err != nil {
			return nil, err
		}
		nfd, err := wire.NewNFDaemon(wire.NFConfig{
			Listen:     "127.0.0.1:0",
			SwitchAddr: lf.nodes[fl.NF.At.Switch].addr(fl.NF.At.Port).String(),
			Server:     f.newServer(fl),
		})
		if err != nil {
			return nil, err
		}
		if err := lf.cableEndpoint(fl.NF.At, nfd.Addr()); err != nil {
			return nil, err
		}
		lf.srcs = append(lf.srcs, source{gen: gen, tg: trafficgen.New(fl.Traffic), bs: gen.BatchSender()})
		lf.sinks, lf.nfs = append(lf.sinks, sink), append(lf.nfs, nfd)
		lf.fwd = append(lf.fwd, uint64(f.g.PathLen(fl.Gen.At, fl.NF.MAC)))
		lf.ret = append(lf.ret, uint64(f.g.PathLen(fl.NF.At, fl.Traffic.SrcMAC)))
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
		n.start(ctx)
	}
	for _, nfd := range lf.nfs {
		d := nfd
		go d.Run(ctx)
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

// close shuts every socket down.
func (lf *liveFabric) close() {
	for _, n := range lf.nodes {
		n.close()
	}
}

// accounted returns how many sent frames have finished: delivered, NF
// dropped, or NF notified.
func (lf *liveFabric) accounted() uint64 {
	var n uint64
	for _, sink := range lf.sinks {
		n += sink.Received.Load()
	}
	for _, nfd := range lf.nfs {
		n += nfd.Dropped.Load() + nfd.Notified.Load()
	}
	return n
}

// switchIngress sums frames accepted by every switch worker.
func (lf *liveFabric) switchIngress() uint64 {
	var n uint64
	for _, node := range lf.nodes {
		n += node.rxFrames.Load()
	}
	return n
}

// expectedIngress is the exact frame count the fabric's switches see
// once quiescent: every generator frame crosses its flow's forward path,
// every NF-forwarded frame the return path, and each explicit-drop
// notification enters its merge switch once.
func (lf *liveFabric) expectedIngress() uint64 {
	var n uint64
	for i, nfd := range lf.nfs {
		n += lf.fwd[i]*lf.srcs[i].gen.Sent.Load() + lf.ret[i]*nfd.Tx.Load() + nfd.Notified.Load()
	}
	return n
}

// waitFor polls cond (every 200µs) until it holds, or reports false once
// ctx expires.
func waitFor(ctx context.Context, cond func() bool) bool {
	for !cond() {
		if ctx.Err() != nil {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// minPeriodNs is the shortest controller tick of a live run: every tick
// parks each switch's workers, so faster ticks would starve the dataplane.
const minPeriodNs = int64(time.Millisecond)

// Run resolves and validates the description, brings its fabric up on
// loopback sockets and drives the workload through it, returning the
// measured result. Lockstep mode is the deterministic replay (compare
// against ReferenceRun with Parity); throughput mode measures open-loop
// wire rate. With s.Control enabled a ctrl.Controller calls the graph's
// sim.Plant directly, ticking at Control.PeriodNs wall-clock but no faster
// than every minPeriodNs; the plant applies every telemetry read and push
// under the owning node's quiesce barrier, and the controller's report
// lands in Result.Control.
func Run(ctx context.Context, t Topology, s sim.Sections, w Wiring) (*Result, error) {
	f, err := build(t, s)
	if err != nil {
		return nil, err
	}
	t, s = f.topo, f.sec
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	lf, err := bringUp(ctx, f, w.Metrics)
	if err != nil {
		return nil, err
	}
	defer func() {
		cancel()
		lf.close()
	}()

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
		period := cc.PeriodNs
		ctlDone.Add(1)
		go func() {
			defer ctlDone.Done()
			tick := time.NewTicker(time.Duration(period))
			defer tick.Stop()
			for n := int64(1); ; n++ {
				select {
				case <-ctlCtx.Done():
					return
				case <-tick.C:
					// Decisions are stamped with the tick's nominal time
					// (tick n fires at n*PeriodNs), the same clock domain
					// the simulator's attachController uses — so live
					// decision timelines line up with sim traces instead
					// of drifting on goroutine-start wall-clock offsets.
					controller.Tick(n * period)
				}
			}
		}()
	}

	begin := time.Now()
	if t.Lockstep {
		res.Mode = "lockstep"
		for k := 0; k < t.Frames; k++ {
			for g := range lf.srcs {
				src := &lf.srcs[g]
				src.queue()
				if src.bs.Flush() != 0 {
					return nil, fmt.Errorf("live: send of frame %d of generator %d failed", k, g)
				}
				res.Sent++
				if !waitFor(ctx, func() bool { return lf.accounted() >= res.Sent }) {
					return nil, fmt.Errorf("live: timed out waiting for frame %d of generator %d to be accounted", k, g)
				}
			}
		}
		// Trailing explicit-drop notifications are still in flight when
		// Notified ticks; wait for the exact switch ingress count.
		if !waitFor(ctx, func() bool { return lf.switchIngress() >= lf.expectedIngress() }) {
			return nil, errors.New("live: timed out waiting for fabric quiescence")
		}
	} else {
		res.Mode = "throughput"
		var wg sync.WaitGroup
		errCh := make(chan error, len(lf.srcs))
		for g := range lf.srcs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errCh <- lf.blast(ctx, g)
			}(g)
		}
		wg.Wait()
		for range lf.srcs {
			if err := <-errCh; err != nil {
				return nil, err
			}
		}
		for i := range lf.srcs {
			res.Sent += lf.srcs[i].gen.Sent.Load()
		}
		if !lf.settle(ctx, res.Sent) {
			return nil, errors.New("live: timed out waiting for the fabric to settle")
		}
	}
	res.ElapsedNs = time.Since(begin).Nanoseconds()
	stopControl()
	for i := range lf.srcs {
		res.SentBytes += lf.srcs[i].bytes
	}

	for _, sink := range lf.sinks {
		res.Delivered += sink.Received.Load()
		res.DeliveredBytes += sink.ReceivedBytes.Load()
	}
	for _, nfd := range lf.nfs {
		res.NFReceived += nfd.Rx.Load()
		res.NFDropped += nfd.Dropped.Load()
		res.NFNotified += nfd.Notified.Load()
	}
	if res.ElapsedNs > 0 {
		secs := float64(res.ElapsedNs) / 1e9
		res.PPS = float64(res.Delivered) / secs
		res.Gbps = float64(res.DeliveredBytes) * 8 / secs / 1e9
	}
	if controller != nil {
		res.Control = controller.Snapshot()
	}

	// Merged counters are only coherent with every worker parked; quiesce
	// node by node (the fabric is globally idle, so per-node barriers
	// suffice and also publish the workers' writes to this goroutine).
	for i, n := range lf.nodes {
		n.quiesce(func() { res.Counters.add(lf.sws[i]) })
	}
	return res, nil
}

// blast is one generator's open-loop sender: batched sends windowed by
// delivery accounting, with a stall detector that writes off frames the
// fabric consumed (evictions) so ghosts never wedge the window.
func (lf *liveFabric) blast(ctx context.Context, g int) error {
	src := &lf.srcs[g]
	frames, window := lf.f.topo.Frames, lf.f.topo.Window
	acct := func() uint64 {
		nfd := lf.nfs[g]
		return lf.sinks[g].Received.Load() + nfd.Dropped.Load() + nfd.Notified.Load()
	}
	var ghosts uint64
	lastAcct := uint64(0)
	lastProgress := time.Now()
	for sent := 0; sent < frames; {
		if ctx.Err() != nil {
			return fmt.Errorf("live: generator %d timed out at %d/%d frames", g, sent, frames)
		}
		a := acct()
		if a != lastAcct {
			lastAcct = a
			lastProgress = time.Now()
		}
		inflight := uint64(sent) - a - ghosts
		if int(inflight) >= window {
			if time.Since(lastProgress) > 10*time.Millisecond {
				// The missing frames died inside the fabric; stop counting
				// them against the window.
				ghosts += inflight - uint64(window)/2
				lastProgress = time.Now()
				continue
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		n := min(window-int(inflight), wire.DefaultBurst, frames-sent)
		for i := 0; i < n; i++ {
			src.queue()
		}
		src.bs.Flush()
		sent += n
	}
	return nil
}

// settle waits until the books balance — every sent frame accounted for
// and the exact switch ingress seen, lockstep's rule — or, when frames died
// inside the fabric (premature evictions), until the switch ingress and
// accounting totals hold still across samples 20ms apart. It reports false
// once ctx expires.
func (lf *liveFabric) settle(ctx context.Context, sent uint64) bool {
	last := [2]uint64{^uint64(0)} // no counter holds it: the first sample is never "unchanged"
	return waitFor(ctx, func() bool {
		cur := [2]uint64{lf.switchIngress(), lf.accounted()}
		if cur[1] == sent && cur[0] >= lf.expectedIngress() {
			return true
		}
		if cur != last {
			last = cur
			return false
		}
		time.Sleep(20 * time.Millisecond)
		return [2]uint64{lf.switchIngress(), lf.accounted()} == last
	})
}
