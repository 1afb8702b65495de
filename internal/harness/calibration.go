// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (§6), the calibration constants that align the
// simulator with the paper's testbed (README "Calibration note"), and the
// text output that mirrors the paper's rows and series. Every experiment
// is one function that runs its Scenarios and appends the rows it prints
// to a Result; each Experiment's Paper line states what the paper reports,
// for side-by-side reading.
package harness

import (
	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// Calibration presets. Each constant is tied to a statement in the paper;
// where the paper is silent, public hardware figures are used and noted.
//
// The NF server is a 2.3 GHz Xeon E7-4870 v2 (§6.1). Its NIC hangs off a
// PCIe x8 Gen3 slot: ~63-66 Gbps usable after framing (Neugebauer et al.,
// SIGCOMM 2018, which the paper cites as [36] for "PCIe bandwidth is a
// bottleneck at small packet sizes"). The per-packet RX cost is set so
// the FW->NAT chain saturates near the paper's observed 33.6 Gbps send
// rate for 512 B packets (Fig. 16) — with these constants the cap is the
// PCIe bus, matching the paper's attribution.

// Core-count notes. ServerModel.Cores models RSS receive-side scaling:
// per-core RX queues each feeding a replica of the NF chain pipeline,
// with per-core service costs. The paper's single-server OpenNetVM and
// NetBricks deployments do NOT scale that way: they pin one NF instance
// per core and feed it from a single manager RX thread (§6.1), so their
// parallelism is the stage pipelining the simulator already models and
// the calibrated RX costs below are the costs of that one receive path —
// hence Cores: 1. The multi-server machines run the one-NF MAC-swap
// workload with RSS across all 8 cores, so MultiServer10G carries
// per-core costs (see there).

// OpenNetVM40G models the 40 GbE OpenNetVM deployment of Figs. 8, 9, 12,
// 15 and 16.
func OpenNetVM40G() sim.ServerModel {
	return sim.ServerModel{
		FreqHz:            2.3e9,
		Cores:             1, // single manager RX thread; NFs pipeline across cores
		RxFixedNs:         65,
		RxPerByteNs:       0.023,
		NICRing:           1024,
		StageQueue:        4096,
		PCIeBps:           66e9,
		PCIeOverheadBytes: 8,
	}
}

// NetBricks10G models the 10 GbE NetBricks deployment of Figs. 7 and 13.
// NetBricks runs NFs in one process without container isolation (§6.1),
// so its per-packet framework cost is lower; the 10 GbE link is the
// bottleneck throughout those experiments.
func NetBricks10G() sim.ServerModel {
	return sim.ServerModel{
		FreqHz:            2.3e9,
		Cores:             1, // run-to-completion in one process
		RxFixedNs:         45,
		RxPerByteNs:       0.02,
		NICRing:           1024,
		StageQueue:        4096,
		PCIeBps:           66e9,
		PCIeOverheadBytes: 8,
	}
}

// MultiServer10G models the 8-core 2.4 GHz Xeon E5-2407 v2 NF servers of
// the multi-server experiment (§6.2.3): the one-NF MAC-swap workload runs
// replicated on every core behind an RSS-hashed RX queue each. The costs
// are per core — these entry-level machines have a much higher per-byte
// receive cost (no DDIO-class cache steering), and the 8-core aggregate
// lands where the single-station calibration used to: it is the server,
// not the 10 GbE link, that caps the PayloadPark runs, which is what
// keeps the per-server goodput gain at the paper's ~31% rather than the
// raw link-ratio ~60%.
func MultiServer10G() sim.ServerModel {
	return sim.ServerModel{
		FreqHz:            2.4e9,
		Cores:             8,
		RxFixedNs:         1712,
		RxPerByteNs:       0.6,
		NICRing:           1024,
		StageQueue:        4096,
		PCIeBps:           31.5e9, // x4 Gen3
		PCIeOverheadBytes: 8,
	}
}

// MemorySweepServer is the Fig. 14 configuration: deep software rings
// (OpenNetVM's default rings are large) and periodic receive-path stalls
// (container scheduling). During a stall-and-drain excursion the packets
// in flight grow with offered load; with Expiry threshold 1 a parked
// payload survives exactly one wrap of the table index, so the peak
// no-premature-eviction rate scales with the reserved table size — the
// relationship Fig. 14 plots.
func MemorySweepServer() sim.ServerModel {
	m := OpenNetVM40G()
	m.RxFixedNs = 95
	// Rings deep enough that stall excursions never overflow them: the
	// premature-eviction criterion, not packet loss, is what binds.
	m.NICRing = 65536
	m.StageQueue = 65536
	m.StallPeriodNs = 25e6 // 25 ms
	m.StallNs = 4e6        // 4 ms
	return m
}

// PipeSRAMBytes is the stateful SRAM of one pipe.
const PipeSRAMBytes = rmt.StageCount * rmt.StageSRAMBytes

// SlotsForSRAMPct returns the lookup-table capacity that consumes roughly
// the given fraction of a pipe's SRAM, as the Fig. 14 sweep and the §6.2
// macro setup ("PayloadPark reserves about 26% of switch memory") size it.
func SlotsForSRAMPct(pct float64, recirc bool) int {
	row := core.Config{Slots: 1, Recirculate: recirc}.TableSRAMBytes()
	slots := int(pct * float64(PipeSRAMBytes) / float64(row))
	if slots < 1 {
		slots = 1
	}
	if slots > core.MaxSlots {
		slots = core.MaxSlots
	}
	return slots
}

// MacroSlots is the §6.2 default: about 26% of switch memory.
var MacroSlots = SlotsForSRAMPct(0.26, false)

// MacroSlotsRecirc sizes the recirculation configuration to the same
// memory fraction.
var MacroSlotsRecirc = SlotsForSRAMPct(0.26, true)
