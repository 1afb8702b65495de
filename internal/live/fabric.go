package live

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// Endpoint kinds hanging off switch ports.
const (
	epGen  = iota // traffic source; in the chain geometry also the sink
	epNF          // NF server
	epSink        // pure sink (leaf-spine delivery point)
)

// endpoint is a generator, NF, or sink attached to a switch port.
type endpoint struct {
	kind  int
	index int // generator / NF pair index
}

// cableEnd addresses one switch port.
type cableEnd struct {
	sw   int
	port rmt.PortID
}

// link is what a cabled switch port connects to: an endpoint or the far
// end of a switch-to-switch cable.
type link struct {
	ep    *endpoint
	cable *cableEnd
}

// fabricSwitch is one switch of the fabric: the compiled pipelines, its
// parking programs, and its port wiring.
type fabricSwitch struct {
	name  string
	sw    *core.Switch
	progs []*core.Program
	links map[rmt.PortID]link
}

// pipesInUse returns the sorted pipe indices with at least one cabled
// port.
func (fs *fabricSwitch) pipesInUse() []int {
	var used [core.NumPipes]bool
	for port := range fs.links {
		used[core.PipeOfPort(port)] = true
	}
	var pipes []int
	for p, u := range used {
		if u {
			pipes = append(pipes, p)
		}
	}
	return pipes
}

// fabric is the topology shared by the live runner and the reference
// replay: switches with installed programs, the cable graph, and the
// per-generator frame sequences.
type fabric struct {
	// topo and sec are the run's description, resolved and validated.
	topo     Topology
	sec      sim.Sections
	geo      geometry
	switches []*fabricSwitch
	// gens[i] holds generator i's deterministic frames; genEntry[i] is
	// where they enter the fabric; genTarget[i] is the NF pair serving it.
	gens      [][][]byte
	genEntry  []cableEnd
	genTarget []int
	// nfPort[j] is where NF j hangs (frames forwarded by the NF re-enter
	// there).
	nfPort []cableEnd
}

// build resolves and validates the description, then builds its fabric.
func build(t Topology, s sim.Sections) (*fabric, error) {
	t.Resolve(&s)
	err := t.Validate(s)
	if err != nil {
		return nil, err
	}
	f := &fabric{topo: t, sec: s}
	if f.geo, _ = t.parseGeometry(); f.geo.kind == "chain" { // Validate has checked it
		err = f.buildChain()
	} else {
		err = f.buildLeafSpine()
	}
	if err != nil {
		return nil, err
	}
	for i, target := range f.genTarget {
		f.gens = append(f.gens, genFrames(t, s, i, target))
	}
	return f, nil
}

// buildChain wires the testbed chain: one switch, and per pipe p a
// generator on port 16p (the split port) and an NF on port 16p+1 (the
// merge port) — the gen doubles as the sink, like the hardware testbed
// where the pktgen NIC both offers and receives the traffic.
func (f *fabric) buildChain() error {
	fs := &fabricSwitch{
		name:  "sw0",
		sw:    core.NewSwitch("sw0"),
		links: make(map[rmt.PortID]link),
	}
	for p := 0; p < f.topo.Pipes; p++ {
		split := rmt.PortID(p * core.PortsPerPipe)
		merge := split + 1
		fs.sw.AddL2Route(nfMAC(p), merge)
		fs.sw.AddL2Route(genMAC(p), split)
		if f.sec.Parking.Enabled() {
			prog, err := fs.sw.AttachPayloadPark(f.sec.Parking.Core(split, merge), -1)
			if err != nil {
				return fmt.Errorf("live: pipe %d program: %w", p, err)
			}
			fs.progs = append(fs.progs, prog)
		}
		fs.links[split] = link{ep: &endpoint{kind: epGen, index: p}}
		fs.links[merge] = link{ep: &endpoint{kind: epNF, index: p}}
		f.genEntry = append(f.genEntry, cableEnd{sw: 0, port: split})
		f.genTarget = append(f.genTarget, p)
		f.nfPort = append(f.nfPort, cableEnd{sw: 0, port: merge})
	}
	f.switches = []*fabricSwitch{fs}
	return nil
}

// buildLeafSpine wires L leaves and S spines, park-at-edge. Leaf k's
// ports (all pipe 0): 0 generator, 1 NF, 2 sink, 3+s uplink to spine s.
// Generator k's traffic targets the NF on leaf (k+1)%L: split at leaf
// k's port 0, transit via spine k%S, NF'd at leaf (k+1)%L, returned via
// the same spine into leaf k's merge port 3+(k%S), merged, delivered to
// leaf k's sink. Spine s's port k cables to leaf k; spines are baseline
// L2 switches. The parity-safety constraint (adjacent leaves on distinct
// spines) guarantees transit frames never enter a merge port.
func (f *fabric) buildLeafSpine() error {
	L, S := f.geo.leaves, f.geo.spines
	for k := 0; k < L; k++ {
		leaf := &fabricSwitch{
			name:  fmt.Sprintf("leaf%d", k),
			sw:    core.NewSwitch(fmt.Sprintf("leaf%d", k)),
			links: make(map[rmt.PortID]link),
		}
		merge := rmt.PortID(3 + k%S)
		if f.sec.Parking.Enabled() {
			prog, err := leaf.sw.AttachPayloadPark(f.sec.Parking.Core(0, merge), -1)
			if err != nil {
				return fmt.Errorf("live: leaf %d program: %w", k, err)
			}
			leaf.progs = append(leaf.progs, prog)
		}
		// Local endpoints.
		leaf.links[0] = link{ep: &endpoint{kind: epGen, index: k}}
		leaf.links[1] = link{ep: &endpoint{kind: epNF, index: k}}
		leaf.links[2] = link{ep: &endpoint{kind: epSink, index: k}}
		// L2: this leaf's NF and sink, outbound split traffic to the next
		// leaf's NF, and the previous leaf's NF'd traffic back up its
		// return spine.
		leaf.sw.AddL2Route(nfMAC(k), 1)
		leaf.sw.AddL2Route(genMAC(k), 2)
		next := (k + 1) % L
		leaf.sw.AddL2Route(nfMAC(next), rmt.PortID(3+k%S))
		prev := (k - 1 + L) % L
		leaf.sw.AddL2Route(genMAC(prev), rmt.PortID(3+prev%S))
		f.switches = append(f.switches, leaf)
		f.genEntry = append(f.genEntry, cableEnd{sw: k, port: 0})
		f.genTarget = append(f.genTarget, next)
		f.nfPort = append(f.nfPort, cableEnd{sw: k, port: 1})
	}
	for s := 0; s < S; s++ {
		spine := &fabricSwitch{
			name:  fmt.Sprintf("spine%d", s),
			sw:    core.NewSwitch(fmt.Sprintf("spine%d", s)),
			links: make(map[rmt.PortID]link),
		}
		for k := 0; k < L; k++ {
			spine.sw.AddL2Route(nfMAC(k), rmt.PortID(k))
			spine.sw.AddL2Route(genMAC(k), rmt.PortID(k))
		}
		f.switches = append(f.switches, spine)
	}
	// Cables: leaf k port 3+s <-> spine s port k.
	for k := 0; k < L; k++ {
		for s := 0; s < S; s++ {
			leafEnd := cableEnd{sw: k, port: rmt.PortID(3 + s)}
			spineEnd := cableEnd{sw: L + s, port: rmt.PortID(k)}
			f.switches[k].links[leafEnd.port] = link{cable: &spineEnd}
			f.switches[L+s].links[spineEnd.port] = link{cable: &leafEnd}
		}
	}
	return nil
}

// add merges one switch's dataplane counters into cs. Callers must have
// quiesced the switch's pipe workers first (or be running the
// single-threaded reference).
func (cs *CounterSet) add(fs *fabricSwitch) {
	cs.Rx += fs.sw.RxPackets()
	cs.Tx += fs.sw.TxPackets()
	for _, p := range fs.progs {
		cs.Splits += p.C.Splits.Value()
		cs.Merges += p.C.Merges.Value()
		cs.Evictions += p.C.Evictions.Value()
		cs.PrematureEvictions += p.C.PrematureEvictions.Value()
		cs.ExplicitDrops += p.C.ExplicitDrops.Value()
		cs.OccupiedSkips += p.C.OccupiedSkips.Value()
		cs.SmallPayloadSkips += p.C.SmallPayloadSkips.Value()
		cs.DemotedSkips += p.C.DemotedSkips.Value()
		cs.SplitDisabledFromNF += p.C.SplitDisabledFromNF.Value()
		cs.BadTagDrops += p.C.BadTagDrops.Value()
		cs.StaleExplicitDrops += p.C.StaleExplicitDrops.Value()
	}
	for why, n := range fs.sw.Drops() {
		if cs.Drops == nil {
			cs.Drops = make(map[string]uint64)
		}
		cs.Drops[why] += n
	}
}

// maxHops bounds one frame's walk through the reference fabric; the
// longest legitimate path (leaf-spine with the NF return) is 7 segments.
const maxHops = 16

// ReferenceRun replays the description's deterministic workload through
// the same fabric in process — the dataplane the discrete-event simulator drives,
// stripped of timing. Frames walk the cable graph depth-first, one at a
// time, which is exactly the operation order the live fabric's lockstep
// mode produces; the returned counters are the parity baseline.
func ReferenceRun(t Topology, s sim.Sections) (*Result, error) {
	f, err := build(t, s)
	if err != nil {
		return nil, err
	}
	t, s = f.topo, f.sec
	// One NF endpoint per port: the shared handle chain, persistent parse
	// scratch, and a reused response buffer, as a wire.NFDaemon holds them.
	handles := make([]func(*packet.Packet) bool, len(f.nfPort))
	for j := range handles {
		handles[j] = newNFHandle(t.DropFraction)
	}
	scratch := make([]wire.NFScratch, len(f.nfPort))
	var resp []byte
	res := &Result{Geometry: t.Geometry, Mode: "reference", Parking: s.Parking.Enabled()}
	// One one-slot burst per switch: the reference walks a frame at a time.
	bursts := make([]*core.FrameBurst, len(f.switches))
	for i, fs := range f.switches {
		bursts[i] = fs.sw.NewFrameBurst(1)
	}
	var out []byte
	for k := 0; k < t.Frames; k++ {
		for g := range f.gens {
			frame := f.gens[g][k]
			at := f.genEntry[g]
			res.Sent++
			for hop := 0; hop < maxHops; hop++ {
				fs := f.switches[at.sw]
				fb := bursts[at.sw]
				fb.Reset()
				if fb.Add(frame, at.port) != nil {
					break // rejected: the switch counted the parse error
				}
				r := &fb.Run()[0]
				if !r.OK {
					break // consumed or dropped at the switch
				}
				out = r.Em.Pkt.AppendSerialize(out[:0])
				lk, ok := fs.links[r.Em.Port]
				if !ok {
					return nil, fmt.Errorf("live: reference: %s egress port %d is not cabled", fs.name, r.Em.Port)
				}
				if lk.cable != nil {
					frame = out // Add copies it into the slot before out is rewritten
					at = *lk.cable
					continue
				}
				switch lk.ep.kind {
				case epGen, epSink:
					res.Delivered++
					res.DeliveredBytes += uint64(len(out))
				case epNF:
					var verdict wire.NFVerdict
					resp, verdict = wire.NFFrame(&scratch[lk.ep.index], handles[lk.ep.index], s.Parking.ExplicitDrop, out, resp[:0])
					switch verdict {
					case wire.NFNotified:
						res.NFNotified++
						fallthrough
					case wire.NFForwarded:
						frame = resp
						at = f.nfPort[lk.ep.index]
						continue
					}
					res.NFDropped++ // no response: dropped by the chain, or unparseable
				}
				break
			}
		}
	}
	for _, fs := range f.switches {
		res.Counters.add(fs)
	}
	return res, nil
}
