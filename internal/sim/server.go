package sim

import (
	"math/rand"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// ServerModel calibrates the NF server's timing: the DPDK framework's
// per-packet and per-byte RX cost, the NIC descriptor ring, the inter-NF
// rings, core frequency, core count, and the PCIe bus. Presets matching
// the paper's machines live in internal/harness (calibration.go) with the
// paper quotes that justify them.
type ServerModel struct {
	// FreqHz converts NF cycle costs to time (paper NF server: 2.3 GHz
	// Xeon E7-4870 v2).
	FreqHz float64 `json:"freq_hz,omitempty"`
	// Cores is the number of RX queues the NIC's RSS hash spreads flows
	// over; each queue feeds its own core running a full replica of the NF
	// chain pipeline (the paper's NF servers are 8-core Xeons). RxFixedNs,
	// RxPerByteNs and the chain's cycle costs are all per-core costs, so
	// aggregate capacity scales with Cores while the NIC descriptor ring
	// and the PCIe bus stay shared. Zero means 1 (a single RX thread).
	Cores int `json:"cores,omitempty"`
	// RxFixedNs is the framework's fixed per-packet receive cost on one
	// core (descriptor handling, mbuf bookkeeping, dispatch).
	RxFixedNs float64 `json:"rx_fixed_ns,omitempty"`
	// RxPerByteNs is the per-wire-byte receive cost on one core (copies,
	// cache traffic). PayloadPark's benefit on the compute side comes from
	// shrinking this term.
	RxPerByteNs float64 `json:"rx_per_byte_ns,omitempty"`
	// NICRing is the RX descriptor ring size in packets, shared by all RX
	// queues; overflow is where "packet drops at the NF server NIC"
	// (§6.3.3) happen.
	NICRing int `json:"nic_ring,omitempty"`
	// StageQueue is the capacity of each ring between pipelined NFs
	// (per core: every core runs its own chain pipeline).
	StageQueue int `json:"stage_queue,omitempty"`
	// PCIeBps is the usable PCIe bandwidth shared by RX and TX DMA
	// (x8 Gen3 after framing, ~66 Gbps). Shared across all cores.
	PCIeBps float64 `json:"pcie_bps,omitempty"`
	// PCIeOverheadBytes is the per-packet DMA overhead (descriptors,
	// TLP headers) charged to the bus.
	PCIeOverheadBytes int `json:"pcie_overhead_bytes,omitempty"`
	// ServiceJitterPct adds uniform ±pct jitter to RX and NF service
	// times (container scheduling, interrupts). Zero disables it. With
	// jitter, queueing delay grows gradually as load approaches
	// saturation — the effect behind Fig. 14's eviction onset. The jitter
	// stream derives from the seed passed to NewServerSim, so jittered
	// runs vary with the experiment seed.
	ServiceJitterPct float64 `json:"service_jitter_pct,omitempty"`
	// StallPeriodNs/StallNs model periodic receive-path stalls (container
	// scheduling, interrupt storms): every StallPeriodNs every RX core
	// pauses for StallNs. During the stall and its drain, in-flight
	// residence grows with offered load; whether parked payloads survive
	// the excursion depends on the lookup-table size — the effect the
	// Fig. 14 memory sweep measures. Zero disables stalls.
	StallPeriodNs int64 `json:"stall_period_ns,omitempty"`
	StallNs       int64 `json:"stall_ns,omitempty"`
}

// DefaultServerModel is the generic NF-server model used unless an
// experiment overrides it: the paper's 8-core Xeon with its OpenNetVM
// per-packet costs on every RSS-fed core — a modern multi-queue
// deployment with plenty of receive headroom, so smoke-test saturation
// comes from links and queues rather than the server. The figure
// reproductions do NOT use it; they pin the calibrated presets in
// internal/harness/calibration.go, where the single-server deployments
// deliberately keep Cores: 1 (their parallelism is NF pipelining, not
// RSS — see the core-count notes there).
func DefaultServerModel() ServerModel {
	return ServerModel{
		FreqHz:            2.3e9,
		Cores:             8,
		RxFixedNs:         65,
		RxPerByteNs:       0.023,
		NICRing:           1024,
		StageQueue:        4096,
		PCIeBps:           66e9,
		PCIeOverheadBytes: 8,
	}
}

// RSSHash is the receive-side-scaling flow hash the simulated NIC uses to
// pick an RX queue (and thereby a core) for an arriving packet: the
// 5-tuple fields are packed into two words and mixed with a splitmix64
// finalizer. Like hardware RSS it is deterministic per flow, so one flow
// never reorders across cores; unlike Toeplitz it needs no key schedule.
func RSSHash(ft packet.FiveTuple) uint32 {
	a := uint64(ft.SrcIP.Uint32())<<32 | uint64(ft.DstIP.Uint32())
	b := uint64(ft.SrcPort)<<32 | uint64(ft.DstPort)<<16 | uint64(ft.Protocol)
	z := a*0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z>>32) ^ uint32(z)
}

// scrambleSeed decorrelates nearby seeds (experiment seeds are small
// integers; multi-server runs offset them per server) before they feed
// math/rand, so jitter streams of neighbouring seeds share no structure.
func scrambleSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// station is a single-server FIFO service center.
type station struct {
	busyUntil int64
	queued    int
}

// job is one packet's NF verdict, parked in the server from rxDone until
// the packet leaves (stage-overflow drop, consumed, finish); the events in
// between carry Parcel.job, its index. stages is how many stations the
// packet is charged for (a Drop verdict truncates the chain), forward is
// false when the chain consumed it. Pointer-free: no GC write barriers.
type job struct {
	stages  int32
	forward bool
}

// ServerSim wraps an nf.Server with the timing model: shared NIC ring ->
// shared PCIe DMA -> RSS-selected per-core RX station -> that core's
// pipelined NF stations -> PCIe DMA -> out. Saturation emerges from
// per-core queues backing up into the shared ring, not from one station.
type ServerSim struct {
	eng   *Engine
	model ServerModel
	srv   *nf.Server

	out        func(Parcel)         // transmit toward the switch
	onDrop     func(Parcel, string) // unintended drops (ring/stage overflow)
	onConsumed func(Parcel)         // intended NF drops (no notification)

	// Pre-bound event handlers (see Engine.ScheduleParcel): created once
	// so the per-packet station hops schedule without closure allocations.
	rxDoneFn    func(Parcel)
	stageDoneFn func(Parcel)

	rxOccupancy int // shared NIC descriptor ring occupancy
	cores       int
	chainLen    int
	// rx holds one RX station per core; stages holds every core's chain
	// pipeline as one flat slice (core c's stage i at c*chainLen+i), so
	// station state stays pointer-free and cache-dense.
	rx       []station
	stages   []station
	pcieBusy int64
	rng      *rand.Rand // the service-jitter stream; nil without jitter

	// jobs is the free-listed verdict table; job j's cycles at station i are
	// jobCycles[j*chainLen+i], copied out of nf.Result.Costs (the nf.Server
	// reuses those on its next Handle). Both grow to the peak packets in
	// service, then recycle.
	jobs      []job
	jobCycles []uint64
	freeJobs  []int32

	// RxDrops counts NIC ring overflows; StageDrops inter-NF ring
	// overflows; PCIeBytes total DMA bytes (both directions).
	RxDrops    stats.Counter
	StageDrops stats.Counter
	PCIeBytes  stats.Counter

	// Per-core accounting: even with a shared descriptor ring, an
	// overflow strikes whichever core's backlog let the ring fill, and
	// RSS skew shows up as per-core queue depth long before aggregate
	// drops do. coreQueue tracks each core's live RX backlog.
	coreStats []CoreStat
	coreQueue []int
}

// CoreStat is one RX core's drop and occupancy record.
type CoreStat struct {
	// Served counts packets whose RX completed on this core.
	Served uint64 `json:"served"`
	// RxDrops counts ring-overflow drops charged to this core (the core
	// the RSS hash had picked for the dropped packet); StageDrops counts
	// this core's inter-NF ring overflows.
	RxDrops    uint64 `json:"rx_drops"`
	StageDrops uint64 `json:"stage_drops"`
	// PeakQueue is the deepest RX backlog the core accumulated.
	PeakQueue int `json:"peak_queue"`
}

// NewServerSim builds a server simulation around a behavioural server.
// seed drives the service-jitter stream; callers pass the experiment seed
// (offset per server in multi-server runs) so jittered runs vary with it.
func NewServerSim(eng *Engine, model ServerModel, srv *nf.Server, seed int64, out func(Parcel), onDrop func(Parcel, string), onConsumed func(Parcel)) *ServerSim {
	cores := model.Cores
	if cores <= 0 {
		cores = 1
	}
	chainLen := srv.Chain().Len()
	s := &ServerSim{
		eng: eng, model: model, srv: srv,
		out: out, onDrop: onDrop, onConsumed: onConsumed,
		cores:     cores,
		chainLen:  chainLen,
		rx:        make([]station, cores),
		stages:    make([]station, cores*chainLen),
		coreStats: make([]CoreStat, cores),
		coreQueue: make([]int, cores),
	}
	if model.ServiceJitterPct > 0 { // seeding a source costs ~14 µs: only jitter draws
		s.rng = rand.New(rand.NewSource(scrambleSeed(seed)))
	}
	s.rxDoneFn = s.rxDone
	s.stageDoneFn = s.stageDone
	if model.StallPeriodNs > 0 && model.StallNs > 0 {
		var stall func()
		stall = func() {
			now := eng.Now()
			for c := range s.rx {
				if s.rx[c].busyUntil < now {
					s.rx[c].busyUntil = now
				}
				s.rx[c].busyUntil += model.StallNs
			}
			eng.Schedule(model.StallPeriodNs, stall)
		}
		eng.Schedule(model.StallPeriodNs, stall)
	}
	return s
}

// CoreStats returns a copy of the per-core drop/occupancy counters.
func (s *ServerSim) CoreStats() []CoreStat {
	return append([]CoreStat(nil), s.coreStats...)
}

// jitter perturbs a service time by the configured uniform percentage.
func (s *ServerSim) jitter(ns int64) int64 {
	j := s.model.ServiceJitterPct
	if j <= 0 {
		return ns
	}
	f := 1 + j*(2*s.rng.Float64()-1)
	return int64(float64(ns) * f)
}

// pcieTransfer serializes a DMA of n packet bytes on the shared bus and
// returns its completion time.
func (s *ServerSim) pcieTransfer(pktBytes int) int64 {
	bytes := pktBytes + s.model.PCIeOverheadBytes
	s.PCIeBytes.Add(uint64(bytes))
	start := s.pcieBusy
	if now := s.eng.Now(); start < now {
		start = now
	}
	done := start + int64(float64(bytes*8)/s.model.PCIeBps*1e9)
	s.pcieBusy = done
	return done
}

// Receive is the link-delivery handler: a packet arrives at the NIC. The
// RSS hash of its 5-tuple picks the RX queue; the descriptor ring and the
// PCIe bus are shared across queues. A dropped packet is reported to
// onDrop, whose owner recycles it — ServerSim never holds a reference to
// a dropped parcel.
//
//pp:zeroalloc
func (s *ServerSim) Receive(p Parcel) {
	core := 0
	if s.cores > 1 {
		core = int(RSSHash(p.Pkt.FiveTuple()) % uint32(s.cores))
	}
	if s.rxOccupancy >= s.model.NICRing {
		s.RxDrops.Inc()
		s.coreStats[core].RxDrops++
		if s.onDrop != nil {
			s.onDrop(p, "nic ring overflow")
		}
		return
	}
	s.rxOccupancy++
	s.coreQueue[core]++
	if s.coreQueue[core] > s.coreStats[core].PeakQueue {
		s.coreStats[core].PeakQueue = s.coreQueue[core]
	}
	p.core = int32(core)
	// DMA into host memory, then this queue's RX core picks it up.
	dmaDone := s.pcieTransfer(p.Pkt.Len())
	rxNs := s.jitter(int64(s.model.RxFixedNs + s.model.RxPerByteNs*float64(p.Pkt.Len())))
	rx := &s.rx[core]
	start := rx.busyUntil
	if start < dmaDone {
		start = dmaDone
	}
	done := start + rxNs
	rx.busyUntil = done
	s.eng.ScheduleParcelAt(done, s.rxDoneFn, p)
}

// rxDone runs when an RX core has picked the packet off the ring: the NF
// chain renders its verdict, which is parked in the job table, and the
// packet — from here the verdict's output, if it has one — enters that
// core's pipelined stations.
//
//pp:zeroalloc
func (s *ServerSim) rxDone(p Parcel) {
	s.rxOccupancy--
	s.coreQueue[p.core]--
	s.coreStats[p.core].Served++
	res := s.srv.Handle(p.Pkt)
	p.job = s.claimJob()
	s.jobs[p.job] = job{stages: int32(len(res.Costs)), forward: res.Out != nil}
	cycles := s.jobCycles[int(p.job)*s.chainLen:]
	for i, c := range res.Costs {
		cycles[i] = c.Cycles
	}
	if res.Out != nil {
		p.Pkt = res.Out
	}
	p.stage = 0
	s.enterStage(p)
}

// claimJob takes a row off the free list, growing the table when every
// row is in service.
func (s *ServerSim) claimJob() int32 {
	if n := len(s.freeJobs); n > 0 {
		j := s.freeJobs[n-1]
		s.freeJobs = s.freeJobs[:n-1]
		return j
	}
	s.jobs = append(s.jobs, job{})
	for i := 0; i < s.chainLen; i++ {
		s.jobCycles = append(s.jobCycles, 0)
	}
	return int32(len(s.jobs) - 1)
}

// enterStage routes the packet through the pipelined NF stations of its
// core that it was actually charged for (stages after a Drop verdict are
// skipped because the job's stage count is truncated).
//
//pp:zeroalloc
func (s *ServerSim) enterStage(p Parcel) {
	i := int(p.stage)
	if i >= int(s.jobs[p.job].stages) {
		s.finish(p)
		return
	}
	st := &s.stages[int(p.core)*s.chainLen+i]
	if st.queued >= s.model.StageQueue {
		s.StageDrops.Inc()
		s.coreStats[p.core].StageDrops++
		s.freeJobs = append(s.freeJobs, p.job)
		if s.onDrop != nil {
			s.onDrop(p, "stage queue overflow")
		}
		return
	}
	st.queued++
	serviceNs := s.jitter(int64(float64(s.jobCycles[int(p.job)*s.chainLen+i]) / s.model.FreqHz * 1e9))
	start := st.busyUntil
	if now := s.eng.Now(); start < now {
		start = now
	}
	done := start + serviceNs
	st.busyUntil = done
	s.eng.ScheduleParcelAt(done, s.stageDoneFn, p)
}

// stageDone leaves station p.stage of p's core and enters the next one.
//
//pp:zeroalloc
func (s *ServerSim) stageDone(p Parcel) {
	s.stages[int(p.core)*s.chainLen+int(p.stage)].queued--
	p.stage++
	s.enterStage(p)
}

// finish releases the job and transmits the result (forwarded packet or
// explicit-drop notification) or records a silent drop.
//
//pp:zeroalloc
func (s *ServerSim) finish(p Parcel) {
	forward := s.jobs[p.job].forward
	s.freeJobs = append(s.freeJobs, p.job)
	if !forward {
		if s.onConsumed != nil {
			s.onConsumed(p)
		}
		return
	}
	txDone := s.pcieTransfer(p.Pkt.Len())
	s.eng.ScheduleParcelAt(txDone, s.out, p)
}
