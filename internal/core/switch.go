package core

import (
	"fmt"
	"sync"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// PortsPerPipe mirrors the paper's Tofino: 64 ports in four groups of 16,
// each group sharing one pipe and its resources (§5).
const PortsPerPipe = 16

// NumPipes is the number of pipes on the modeled switch.
const NumPipes = 4

// NumPorts is the number of front-panel ports (NumPipes x PortsPerPipe).
const NumPorts = NumPipes * PortsPerPipe

// DropUnknownMAC is recorded when L2 forwarding has no entry for the
// destination MAC.
const DropUnknownMAC = "unknown dst mac"

// Switch-internal drop reasons.
const (
	dropInvalidPort = "invalid port"
	dropParseError  = "parse error"
)

// invalidShard is the counter shard charged for packets that never reach a
// pipe (out-of-range port).
const invalidShard = NumPipes

// Emission is a packet leaving the switch.
type Emission struct {
	Pkt *packet.Packet
	// Port is the egress port chosen by L2 forwarding.
	Port rmt.PortID
	// Passes is the number of pipeline passes the packet took (2 when
	// recirculated).
	Passes int
	// LatencyNs is the switch traversal latency for this packet.
	LatencyNs int64
}

// Switch is a 4-pipe RMT switch running L2 forwarding plus any installed
// PayloadPark programs. A Switch with no programs installed is the
// paper's baseline deployment.
//
// InjectBatch (parsed packets) and FrameBurst (raw frames, built on it)
// are the only ways in. Pipes share no stateful memory (§5) and every
// counter is sharded per pipe, so goroutines may drive one Switch
// concurrently under the one-worker-per-pipe rule: all traffic entering a
// pipe's ports — and the ports of any pipe that recirculates into it or
// that it recirculates into — comes from a single goroutine. Merged
// counter reads (RxPackets, Drops, ...) are well-defined only while no
// worker is injecting.
type Switch struct {
	name  string
	pipes [NumPipes]*rmt.Pipeline
	// programs are the typed PayloadPark programs; a spec attached through
	// AttachSpec alone is held by its caller.
	programs []*Program
	// recircOf maps an ingress pipe index to the pipe handling its second
	// pass.
	recircOf map[int]int
	// fwd maps destination MACs to L2 ports and ECMP hash groups (fwd.go,
	// ecmp.go).
	fwd fwdTable

	// ppOffset precomputes, per port, where arriving frames carry a
	// PayloadPark header (-1: none). AttachSpec sets it from each loaded
	// program's parser geometry, replacing a per-packet linear scan over
	// installed programs.
	ppOffset [NumPorts]int
	// maxPark is the largest park region over installed programs (set by
	// AttachSpec); it sizes the merge headroom of FrameBurst slots and
	// wire-parse hops.
	maxPark int

	// rx/tx count packets entering and leaving the switch, sharded by pipe
	// (plus invalidShard) so parallel pipe workers never contend.
	rx [NumPipes + 1]stats.Counter
	tx [NumPipes + 1]stats.Counter

	// Drop-reason counters are interned: reason strings map to dense ids
	// (dropMu-guarded, hit only on the drop path), counts are per-pipe
	// slices indexed by id and owned by the pipe's worker.
	dropMu     sync.RWMutex
	dropIdx    map[string]int
	dropNames  []string
	dropShards [NumPipes + 1][]uint64
}

// NewSwitch returns a switch with four empty pipes and an empty L2 table.
func NewSwitch(name string) *Switch {
	s := &Switch{
		name:     name,
		recircOf: make(map[int]int),
		fwd:      fwdTable{cells: make([]fwdEntry, 16)},
		dropIdx:  make(map[string]int),
	}
	for i := range s.pipes {
		s.pipes[i] = rmt.NewPipeline(fmt.Sprintf("%s/pipe%d", name, i))
	}
	for i := range s.ppOffset {
		s.ppOffset[i] = -1
	}
	// Pre-intern the reasons the switch and the stock program can record.
	for _, why := range []string{
		DropUnknownMAC, dropInvalidPort, dropParseError,
		DropPrematureEviction, DropExplicitDrop, DropStaleExplicitDrop, DropBadTag, DropTruncatedMerge, DropNoParkRegion,
	} {
		s.dropID(why)
	}
	return s
}

// Pipe returns pipe i for inspection (resource reports, tests).
func (s *Switch) Pipe(i int) *rmt.Pipeline { return s.pipes[i] }

// Programs returns the installed PayloadPark programs.
func (s *Switch) Programs() []*Program { return s.programs }

// ParkCounters sums the monitoring counters of the switch's parking
// programs: the one place they are summed (zero without a program).
func (s *Switch) ParkCounters() Counters {
	var c Counters
	for _, p := range s.programs {
		c.Add(p.C)
	}
	return c
}

// AddL2Route maps a destination MAC to an egress port.
func (s *Switch) AddL2Route(mac packet.MAC, port rmt.PortID) {
	e := s.fwd.entry(mac)
	e.port, e.hasL2 = port, true
}

// PipeOfPort returns the pipe index serving a port.
func PipeOfPort(port rmt.PortID) int { return int(port) / PortsPerPipe }

// PPOffset returns the PayloadPark header offset frames arriving on port
// carry (-1 when the port expects none) — the per-port parse geometry a
// byte-level driver needs to re-parse frames between cascaded switches.
func (s *Switch) PPOffset(port rmt.PortID) int {
	if int(port) >= NumPorts {
		return -1
	}
	return s.ppOffset[port]
}

// MaxParkBytes is the largest park region over installed programs: the
// room a byte-level parser leaves in front of a payload for merges here.
func (s *Switch) MaxParkBytes() int { return s.maxPark }

// RxPackets returns packets received across all pipes. Not meaningful
// while a pipe worker is injecting.
func (s *Switch) RxPackets() uint64 {
	var n uint64
	for i := range s.rx {
		n += s.rx[i].Value()
	}
	return n
}

// TxPackets returns packets transmitted across all pipes. Not meaningful
// while a pipe worker is injecting.
func (s *Switch) TxPackets() uint64 {
	var n uint64
	for i := range s.tx {
		n += s.tx[i].Value()
	}
	return n
}

// MatchCounts returns the match steps evaluated and the residual conditions
// loaded across all pipes (rmt.Pipeline.MatchCounts). Not meaningful while a
// pipe worker is injecting.
func (s *Switch) MatchCounts() (steps, residual uint64) {
	for _, p := range s.pipes {
		st, r := p.MatchCounts()
		steps, residual = steps+st, residual+r
	}
	return steps, residual
}

// CompilePark compiles the PayloadPark program (prog.PayloadParkSpec) cfg
// describes, once for every switch and port pair AttachPark installs it at.
func CompilePark(cfg Config) (*prog.Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return prog.Compile(prog.PayloadParkSpec(prog.ParkParams{
		Slots: cfg.Slots, MaxExpiry: cfg.MaxExpiry, SplitPort: int(cfg.SplitPort), MergePort: int(cfg.MergePort),
		BoundaryOffset: cfg.BoundaryOffset, Recirculate: cfg.Recirculate,
		Blocks: cfg.Blocks(), BaseBlocks: BaseBlocks, BlockBytes: BlockBytes, MaxClock: MaxClock,
	}), nil)
}

// AttachPark installs CompilePark's c at cfg's ports through AttachSpec, as
// a typed Program whose Counters the spec's counters tick. With
// cfg.Recirculate, recircPipe names the pipe holding the second-pass payload
// blocks (§6.2.5); without it recircPipe must be -1.
func (s *Switch) AttachPark(c *prog.Compiled, cfg Config, recircPipe int) (*Program, error) {
	p := &Program{cfg: cfg}
	inst, err := s.AttachSpec(c, prog.Ports{Split: int64(cfg.SplitPort), Merge: int64(cfg.MergePort)}, p.C.bindings(), recircPipe)
	if err != nil {
		return nil, err
	}
	p.inst = inst
	s.programs = append(s.programs, p)
	return p, nil
}

// AttachPayloadPark is CompilePark followed by AttachPark.
func (s *Switch) AttachPayloadPark(cfg Config, recircPipe int) (*Program, error) {
	c, err := CompilePark(cfg)
	if err != nil {
		return nil, err
	}
	return s.AttachPark(c, cfg, recircPipe)
}

// AttachSpec is the switch's one loader: it installs a compiled program at
// ports, on the pipe serving ports.Split, in range and bound to the
// "split_port" it must declare, with ports.Merge, if it declares
// "merge_port", on the same pipe (pipes share no stateful memory, §5);
// counters pre-bind spec counter names. recircPipe holds the second-pass
// tables: required exactly when the spec uses one, never the program's own
// pipe. A program the hardware cannot hold is an error, and a refused
// program leaves the switch as it was.
func (s *Switch) AttachSpec(c *prog.Compiled, ports prog.Ports, counters map[string]*stats.Counter, recircPipe int) (*prog.Instance, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	spec := c.Spec()
	if _, ok := spec.Params["split_port"]; !ok {
		return nil, fmt.Errorf("core: spec %q declares no split_port parameter", spec.Name)
	}
	if ports.Split < 0 || ports.Split >= NumPorts {
		return nil, fmt.Errorf("core: spec %q split port %d outside [0,%d)", spec.Name, ports.Split, NumPorts)
	}
	pipeIdx := PipeOfPort(rmt.PortID(ports.Split))
	if _, ok := spec.Params["merge_port"]; ok && PipeOfPort(rmt.PortID(ports.Merge)) != pipeIdx {
		return nil, fmt.Errorf("core: split port %d and merge port %d are on different pipes; pipes share no stateful memory",
			ports.Split, ports.Merge)
	}
	var rp *rmt.Pipeline
	switch recirc := spec.UsesRecircPipe(); {
	case !recirc && recircPipe != -1:
		return nil, fmt.Errorf("core: recirculation pipe %d supplied but spec %q does not recirculate", recircPipe, spec.Name)
	case recirc && (recircPipe < 0 || recircPipe >= NumPipes || recircPipe == pipeIdx):
		return nil, fmt.Errorf("core: invalid recirculation pipe %d for ingress pipe %d", recircPipe, pipeIdx)
	case recirc:
		rp = s.pipes[recircPipe]
	}
	inst, err := c.Install(s.pipes[pipeIdx], rp, ports, counters)
	if err != nil {
		return nil, err
	}
	if rp != nil {
		s.recircOf[pipeIdx] = recircPipe
	}
	blocks, blockBytes, parkOffset := inst.ParkGeometry()
	for _, port := range inst.PPPorts() {
		if port >= 0 && port < NumPorts {
			s.ppOffset[port] = parkOffset
		}
	}
	if pb := blocks * blockBytes; pb > s.maxPark {
		s.maxPark = pb
	}
	return inst, nil
}

// BatchPacket couples a packet with its ingress port for InjectBatch.
type BatchPacket struct {
	Pkt *packet.Packet
	In  rmt.PortID
}

// BatchResult is the per-packet outcome of an injection: Em is filled in
// place (no per-packet allocation) and valid when OK; otherwise Reason
// holds the drop cause (one of the Drop* constants or DropUnknownMAC),
// which lets a driver separate intended consumption (explicit drops) from
// failures.
type BatchResult struct {
	Em     Emission
	OK     bool
	Reason string
}

// InjectBatch runs batch through the switch in order, filling results[i]
// for batch[i] (len(results) must be >= len(batch)); a batch of one is the
// scalar case. Packets are mutated in place (headers rewritten, payload
// parked or reassembled); callers that need the original must Clone first.
//
//pp:zeroalloc
func (s *Switch) InjectBatch(batch []BatchPacket, results []BatchResult) {
	for i := range batch {
		r := &results[i]
		r.Reason = s.injectOne(batch[i].Pkt, batch[i].In, &r.Em)
		r.OK = r.Reason == ""
		if !r.OK {
			r.Em = Emission{}
		}
	}
}

// injectOne runs one already-parsed packet through its pipe (and the
// recirculation pipe on a second pass), filling em on success and
// returning the drop reason otherwise.
func (s *Switch) injectOne(pkt *packet.Packet, in rmt.PortID, em *Emission) string {
	pipeIdx := PipeOfPort(in)
	if pipeIdx < 0 || pipeIdx >= NumPipes {
		s.rx[invalidShard].Inc()
		s.drop(invalidShard, dropInvalidPort)
		return dropInvalidPort
	}
	s.rx[pipeIdx].Inc()
	pipe := s.pipes[pipeIdx]
	phv := pipe.AcquirePHV()
	pipe.Parser().FillPHV(phv, pkt, in)
	// The hole a split cut in front of the payload — or the room a parse
	// left there — is the packet's own: a merge reassembles into it in
	// place, and any other hop leaves it for the merging switch further on.
	phv.Headroom = pkt.Headroom()
	pipe.Process(phv)
	passes := 1
	if phv.Recirc {
		phv.Recirc = false
		phv.Pass = 1
		s.pipes[s.recircOf[pipeIdx]].Process(phv)
		passes = 2
	}
	reason := s.deparse(pipeIdx, phv, passes, em)
	pipe.ReleasePHV(phv)
	return reason
}

// deparse applies the PHV's park/reassemble effects to the packet bytes
// and L2-forwards it, filling em. It returns the drop reason, or "" when
// em holds a valid emission.
//
//pp:zeroalloc
func (s *Switch) deparse(pipeIdx int, phv *rmt.PHV, passes int, em *Emission) string {
	if phv.Drop {
		s.drop(pipeIdx, phv.DropWhy)
		return phv.DropWhy
	}
	pkt := phv.Pkt
	if phv.GetMeta(rmt.MetaSplitClaimed) == 1 {
		// The parked region stays in the payload table; the deparser
		// emits headers + visible prefix + PayloadPark header + the
		// remaining payload. The blocks were stored during Process, so the
		// splice happens in place — no scratch buffer needed.
		// The cut stays in the packet's buffer — in front of the payload
		// at k == 0, behind it otherwise — for a later merge to refill.
		park := int(phv.GetMeta(rmt.MetaParkBytes))
		k := int(phv.GetMeta(rmt.MetaParkOffset))
		if k == 0 {
			pkt.Payload = pkt.Payload[park:]
		} else {
			copy(pkt.Payload[k:], pkt.Payload[k+park:])
			pkt.Payload = pkt.Payload[:len(pkt.Payload)-park]
		}
	}
	if phv.GetMeta(rmt.MetaPPEnabled) == 1 {
		// Reassemble: PrepareMergeBlocks laid out the merged payload with
		// the park region at the boundary offset, and the load MATs
		// filled it.
		pkt.Payload = phv.FinishMerge()
	}
	out, ok := s.fwd.resolve(pkt)
	if !ok {
		s.drop(pipeIdx, DropUnknownMAC)
		return DropUnknownMAC
	}
	s.tx[pipeIdx].Inc()
	lat := int64(rmt.PipeLatencyNs)
	if passes > 1 {
		lat += int64(passes-1) * rmt.RecircLatencyNs
	}
	em.Pkt = pkt
	em.Port = out
	em.Passes = passes
	em.LatencyNs = lat
	return ""
}

// dropID interns a drop reason, returning its dense counter index.
func (s *Switch) dropID(why string) int {
	s.dropMu.RLock()
	id, ok := s.dropIdx[why]
	s.dropMu.RUnlock()
	if ok {
		return id
	}
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	if id, ok = s.dropIdx[why]; ok {
		return id
	}
	id = len(s.dropNames)
	s.dropIdx[why] = id
	s.dropNames = append(s.dropNames, why)
	return id
}

// drop charges one drop with the given reason to a pipe's counter shard.
func (s *Switch) drop(shard int, why string) {
	id := s.dropID(why)
	counts := s.dropShards[shard]
	for len(counts) <= id {
		counts = append(counts, 0)
	}
	counts[id]++
	s.dropShards[shard] = counts
}

// Drops returns drop counts by reason, merged across pipe shards. The map
// is a fresh copy (the live counters are interned per pipe). Not
// meaningful while a pipe worker is injecting.
func (s *Switch) Drops() map[string]uint64 {
	s.dropMu.RLock()
	names := s.dropNames
	s.dropMu.RUnlock()
	out := make(map[string]uint64, len(names))
	for _, shard := range s.dropShards {
		for id, n := range shard {
			if n > 0 {
				out[names[id]] += n
			}
		}
	}
	return out
}

// TotalDrops sums drops across reasons.
func (s *Switch) TotalDrops() uint64 {
	var n uint64
	for _, shard := range s.dropShards {
		for _, v := range shard {
			n += v
		}
	}
	return n
}
