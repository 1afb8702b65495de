package live

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// fabric is one resolved and validated live description: the graph both
// the socket fabric and the reference replay realise. Each flow's
// trafficgen.Config (Graph.Flows[i].Traffic) is its whole workload: a
// fresh generator per run yields the same frames for the same seed.
type fabric struct {
	topo Topology
	sec  sim.Sections
	g    *sim.Graph
}

// build resolves and validates the description, then builds its graph:
// the chain is the single-switch geometry with one generator / NF / sink
// group per pipe, "LxS" the leaf-spine geometry.
func build(t Topology, s sim.Sections) (*fabric, error) {
	t.Resolve(&s)
	if err := t.Validate(s); err != nil {
		return nil, err
	}
	f := &fabric{topo: t, sec: s}
	if leaves, spines, _ := t.parseGeometry(); leaves != 0 { // Validate has checked it
		f.g = sim.LeafSpineGraph(leaves, spines, s)
	} else {
		bases := make([]rmt.PortID, t.Pipes)
		for p := range bases {
			bases[p] = rmt.PortID(p * core.PortsPerPipe)
		}
		f.g = sim.SingleSwitchGraph("sw0", s, bases, true)
	}
	return f, nil
}

// newServer is the NF framework at flow fl's NF endpoint, for the socket
// daemon and the reference replay alike: the simulator's framework rule
// (sim.Sections.ServerConfig) hosting an optional stateless firewall ahead
// of the paper's MAC swap. Verdicts depend only on the packet, so live and
// reference servers agree frame for frame.
func (f *fabric) newServer(fl *sim.Flow) *nf.Server {
	s := f.sec
	s.Chain = func() *nf.Chain {
		if f.topo.DropFraction == 0 {
			return nf.NewChain(nf.MACSwap{})
		}
		return nf.NewChain(nf.NewFirewall(nf.BlacklistFraction(f.topo.DropFraction)), nf.MACSwap{})
	}
	return nf.NewServer(s.ServerConfig(fl))
}

// add merges one switch's dataplane counters into cs. Callers must have
// quiesced the switch's pipe workers first (or be running the
// single-threaded reference).
func (cs *CounterSet) add(sw *core.Switch) {
	cs.Rx += sw.RxPackets()
	cs.Tx += sw.TxPackets()
	cs.Counters.Add(sw.ParkCounters())
	for why, n := range sw.Drops() {
		if cs.Drops == nil {
			cs.Drops = make(map[string]uint64)
		}
		cs.Drops[why] += n
	}
}

// ReferenceRun replays the description's deterministic workload through
// the same graph in process — the dataplane the discrete-event simulator
// drives, stripped of timing (sim.Walker). Frames walk the cables
// depth-first, one at a time, which is exactly the operation order the
// live fabric's lockstep mode produces; the returned counters are the
// parity baseline.
func ReferenceRun(t Topology, s sim.Sections) (*Result, error) {
	f, err := build(t, s)
	if err != nil {
		return nil, err
	}
	t, s = f.topo, f.sec
	sws, err := f.g.RealiseAll()
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	w := sim.NewWalker(f.g, sws)
	// One NF server per flow, as each flow's wire.NFDaemon hosts one, a
	// fresh generator per flow, and reused frame and response buffers.
	servers := make([]*nf.Server, len(f.g.Flows))
	gens := make([]*trafficgen.Generator, len(f.g.Flows))
	for j := range servers {
		servers[j] = f.newServer(&f.g.Flows[j])
		gens[j] = trafficgen.New(f.g.Flows[j].Traffic)
	}
	var frame, resp []byte
	res := &Result{Geometry: t.Geometry, Mode: "reference", Parking: s.Parking.Enabled()}
	serve := func(ep *sim.Endpoint, frame []byte) []byte {
		res.NFReceived++
		var nfr nf.Result
		resp, nfr, _ = servers[ep.Flow].HandleFrame(frame, resp[:0])
		switch {
		case nfr.Notification:
			res.NFNotified++
			return resp
		case nfr.Out != nil:
			return resp
		}
		res.NFDropped++ // no response: dropped by the chain, or unparseable
		return nil
	}
	for k := 0; k < t.Frames; k++ {
		for g, tg := range gens {
			frame = tg.AppendFrame(frame[:0])
			res.Sent++
			res.SentBytes += uint64(len(frame))
			out, err := w.Send(g, frame, serve)
			if err != nil {
				return nil, fmt.Errorf("live: %w", err)
			}
			if out != nil {
				res.Delivered++
				res.DeliveredBytes += uint64(len(out))
			}
		}
	}
	for _, sw := range sws {
		res.Counters.add(sw)
	}
	return res, nil
}
