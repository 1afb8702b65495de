// adapter.go is the only file of the benchmark that imports the program
// (internal/*). Everything the benchmark holds fixed is called from here,
// so a change to the program's driver surface has one file to move.
//
// Pinned surface:
//
//	scenario  Run, Scenario{Testbed, LeafSpine, Live}, Report (+ Report.Metrics)
//	core      NewSwitch, Switch.AddL2Route, AttachPayloadPark, NewFrameBurst,
//	          FrameBurst.Reset/Add/Run, InjectBatch, Switch.Pipe, Switch.Programs
//	packet    ParseAtInto, Packet.AppendSerialize, Packet.Serialize
//	rmt       Pipeline.Parser, Parser.FillPHV, Pipeline.Process/AcquirePHV/ReleasePHV
//	prog      Load, PayloadParkSpec
//	trafficgen New, Generator.Next/Recycle, Datacenter, Fixed
//	nf        NewServer, Server.Handle, NewChain, NewFirewall, NewNAT,
//	          NewLoadBalancer, MACSwap
//	sim       NewEngine, Engine.Schedule/ScheduleParcel/Run, NewLink, Link.Send,
//	          NewServerSim, ServerSim.Receive, ServerModel, ParkEdge
//	wire      NewBurstReader, BurstReader.Read, NewBatchSender,
//	          BatchSender.Begin/Commit/Flush
//	obs       Snapshot (read only, through Report.Metrics)
//
// Every workload parameter below is a literal. None is imported from
// internal/harness: recalibrating a figure there must not change the work
// the benchmark does.
package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// Frozen workload sizes. One repetition is a tenth to a third of a second
// of host time on the 2-core reference host (see README "Host"): short
// enough that some repetitions of a run fall between bursts of interference
// from the host's other tenants. -quick divides every simulated window and frame
// count by quickShrink.
const (
	fig7WarmupNs  = 2e6
	fig7MeasureNs = 35e6
	fig7SendBps   = 11e9
	fig7Slots     = 24341 // 26 % of one pipe's SRAM at 168 B per row

	fabricWarmupNs  = 1e5
	fabricMeasureNs = 3e5
	fabricSendBps   = 60e9
	fabricSlots     = 8192

	dpFrames   = 8192 // distinct pre-serialised frames, cycled
	dpBurst    = 32
	dpSlots    = 8192
	dpMixTrips = 81_920
	dp64Trips  = 122_880

	liveFrames = 20_000
	liveWindow = 128
	liveSlots  = 1024

	quickShrink = 10
)

var (
	macGen  = packet.MAC{0x02, 0, 0, 0, 0, 0x01}
	macNF   = packet.MAC{0x02, 0, 0, 0, 0, 0x02}
	macSink = packet.MAC{0x02, 0, 0, 0, 0, 0x03}
)

const (
	portSplit = rmt.PortID(0)
	portMerge = rmt.PortID(1) // faces the NF: frames arrive with a PP header
	portSink  = rmt.PortID(2)
	portPlain = rmt.PortID(3) // same pipe, no program rule matches it
)

// netBricks10G is the Fig. 7 NF-server calibration, frozen here.
var netBricks10G = sim.ServerModel{
	FreqHz: 2.3e9, Cores: 1, RxFixedNs: 45, RxPerByteNs: 0.02,
	NICRing: 1024, StageQueue: 4096, PCIeBps: 66e9, PCIeOverheadBytes: 8,
}

// fabricServer is the leaf NF-server model of the fabric workloads (the
// program's generic 8-core default, frozen here).
var fabricServer = sim.ServerModel{
	FreqHz: 2.3e9, Cores: 8, RxFixedNs: 65, RxPerByteNs: 0.023,
	NICRing: 1024, StageQueue: 4096, PCIeBps: 66e9, PCIeOverheadBytes: 8,
}

// chainFWNATLB is the paper's three-NF chain: a 20-rule firewall none of
// whose rules match generated traffic, a source NAT, a 4-backend Maglev LB.
func chainFWNATLB() *nf.Chain {
	rules := make([]nf.FirewallRule, 20)
	for i := range rules {
		rules[i] = nf.FirewallRule{Prefix: packet.IPv4Addr{172, 16, byte(i), 0}, Bits: 24}
	}
	lb, err := nf.NewLoadBalancer(map[string]packet.IPv4Addr{
		"backend-0": {10, 2, 0, 10}, "backend-1": {10, 2, 0, 11},
		"backend-2": {10, 2, 0, 12}, "backend-3": {10, 2, 0, 13},
	})
	if err != nil {
		panic(err) // four literal backends: only a bug can make this fail
	}
	return nf.NewChain(nf.NewFirewall(rules), nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}), lb)
}

// workloads is the benchmark's workload table, in reporting order.
var workloads = []workload{
	{name: "testbed_fig7", exact: true, armed: "obs.metrics_overhead_pct", open: openFig7,
		setUp: func(p params) error { _, err := runFig7(p.seed, 1e3, 1e3, false); return err }},
	{name: "fabric_16x8", exact: true, armed: "obs.metrics_overhead_pct", open: openFabric(1), setUp: setUpFabric(1)},
	{name: "fabric_16x8_p2", exact: true, armed: "obs.metrics_overhead_pct", open: openFabric(2), setUp: setUpFabric(2)},
	{name: "dataplane_mix", exact: true, armed: "bench.span_overhead_pct", open: openDataplane(0, dpMixTrips), setUp: setUpDataplane(0)},
	{name: "dataplane_64", exact: true, armed: "bench.span_overhead_pct", open: openDataplane(64, dp64Trips), setUp: setUpDataplane(64)},
	{name: "live_chain", armed: "obs.metrics_overhead_pct", open: openLive,
		setUp: func(p params) error {
			_, err := scenario.Run(context.Background(), liveScenario(p.seed, 1, false))
			return err
		}},
}

func newRepStats() repStats {
	return repStats{fields: map[string]float64{}, counts: map[string]float64{}}
}

// newGen is the traffic source every workload and probe draws from.
func newGen(sizes trafficgen.SizeDist, seed int64) *trafficgen.Generator {
	return trafficgen.New(trafficgen.Config{
		Sizes: sizes, Flows: 1024, SrcMAC: macGen, DstMAC: macNF,
		DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80, Seed: seed,
	})
}

// ---- counters read back from Report.Metrics ----

// inFamily reports whether a series name is family, with or without labels.
func inFamily(name, family string) bool {
	return name == family || strings.HasPrefix(name, family+"{")
}

// counterSum adds every counter of one family.
func counterSum(s *obs.Snapshot, family string) float64 {
	var sum float64
	for _, c := range s.Counters {
		if inFamily(c.Name, family) {
			sum += float64(c.Value)
		}
	}
	return sum
}

func gaugeSum(s *obs.Snapshot, family string) float64 {
	var sum float64
	for _, g := range s.Gauges {
		if inFamily(g.Name, family) {
			sum += g.Value
		}
	}
	return sum
}

// histMean is the mean observation over every histogram of one family.
func histMean(s *obs.Snapshot, family string) float64 {
	var sum, n float64
	for _, h := range s.Histograms {
		if inFamily(h.Name, family) {
			sum += float64(h.Sum)
			n += float64(h.Count)
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// simCounts folds a counted run's snapshot into the per-layer counts; the
// values accumulate so a two-run repetition (fig7) reports both runs.
func simCounts(s *obs.Snapshot, c map[string]float64) {
	c["events"] += counterSum(s, "pp_engine_events_total")
	c["link_tx"] += counterSum(s, "pp_link_tx_packets_total")
	c["switch_rx"] += counterSum(s, "pp_switch_rx_packets_total")
	c["barrier_rounds"] += counterSum(s, "pp_barrier_rounds_total")
	c["barrier_cross_msgs"] += counterSum(s, "pp_barrier_cross_messages_total")
	c["barrier_stall_ns"] += counterSum(s, "pp_barrier_stall_ns_total")
}

// parkTotals records the whole-run parking counters of a counted run, for
// the conservation check (splits = merges + evictions + explicit drops +
// slots still occupied).
func parkTotals(s *obs.Snapshot, f map[string]float64) {
	f["total.splits"] = counterSum(s, "pp_park_splits_total")
	f["total.merges"] = counterSum(s, "pp_park_merges_total")
	f["total.evictions"] = counterSum(s, "pp_park_evictions_total")
	f["total.explicit_drops"] = counterSum(s, "pp_park_explicit_drops_total")
	f["total.occupancy"] = gaugeSum(s, "pp_park_occupancy_slots")
}

// ---- testbed_fig7 ----

func fig7Scenario(seed int64, parking bool, warmupNs, measureNs int64, metrics bool) scenario.Scenario {
	s := scenario.Scenario{
		Name:     "bench/testbed_fig7",
		Topology: scenario.Testbed{LinkBps: 10e9},
		Traffic:  scenario.Traffic{SendBps: fig7SendBps, Dist: trafficgen.Datacenter{}, Flows: 1024},
		Server:   netBricks10G,
		Chain:    chainFWNATLB,
		Observe:  scenario.Observe{Metrics: metrics},
		Opts:     scenario.RunOptions{Seed: seed, WarmupNs: warmupNs, MeasureNs: measureNs},
	}
	if parking {
		s.Parking = scenario.Parking{Mode: sim.ParkEdge, Slots: fig7Slots, MaxExpiry: 1}
	}
	return s
}

// runFig7 runs the baseline and then the parking deployment, back to back.
func runFig7(seed, warmupNs, measureNs int64, metrics bool) (repStats, error) {
	st := newRepStats()
	for _, parking := range []bool{false, true} {
		rep, err := scenario.Run(context.Background(), fig7Scenario(seed, parking, warmupNs, measureNs, metrics))
		if err != nil {
			return st, err
		}
		pre := "base."
		if parking {
			pre = "park."
		}
		st.packets += rep.Delivered
		st.fields[pre+"delivered"] = float64(rep.Delivered)
		st.fields[pre+"goodput_gbps"] = rep.GoodputGbps
		st.fields[pre+"avg_latency_us"] = rep.AvgLatencyUs
		if parking {
			if rep.Healthy {
				st.fields["park.healthy"] = 1
			}
			st.fields["park.premature"] = float64(rep.Premature)
			st.fields["park.splits"] = float64(rep.Testbed.Splits)
			st.fields["park.merges"] = float64(rep.Testbed.Merges)
			st.fields["park.evictions"] = float64(rep.Testbed.Evictions)
		}
		if rep.Metrics != nil {
			simCounts(rep.Metrics, st.counts)
			if parking {
				parkTotals(rep.Metrics, st.fields)
			}
		}
	}
	if base := st.fields["base.goodput_gbps"]; base > 0 {
		st.fields["gain_pct"] = 100 * (st.fields["park.goodput_gbps"] - base) / base
	}
	st.counts["partitions"] = 1
	return st, nil
}

func openFig7(p params) (repFunc, error) {
	warm, meas := int64(fig7WarmupNs)/p.shrink, int64(fig7MeasureNs)/p.shrink
	return func(mode repMode, _ *spanLog) (repStats, error) {
		return runFig7(p.seed, warm, meas, mode == counted)
	}, nil
}

// ---- fabric_16x8, fabric_16x8_p2 ----

func fabricScenario(seed int64, partitions int, warmupNs, measureNs int64, metrics bool) scenario.Scenario {
	return scenario.Scenario{
		Name:     "bench/fabric_16x8",
		Topology: scenario.LeafSpine{Leaves: 16, Spines: 8, LinkBps: 100e9},
		Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: fabricSlots, MaxExpiry: 1},
		Traffic:  scenario.Traffic{SendBps: fabricSendBps, Dist: trafficgen.Datacenter{}, Flows: 1024},
		Server:   fabricServer,
		Observe:  scenario.Observe{Metrics: metrics},
		Opts:     scenario.RunOptions{Seed: seed, WarmupNs: warmupNs, MeasureNs: measureNs, Partitions: partitions},
	}
}

func runFabric(s scenario.Scenario) (repStats, error) {
	st := newRepStats()
	rep, err := scenario.Run(context.Background(), s)
	if err != nil {
		return st, err
	}
	st.packets = rep.Delivered
	f := st.fields
	f["delivered"] = float64(rep.Delivered)
	f["goodput_gbps"] = rep.GoodputGbps
	f["avg_latency_us"] = rep.AvgLatencyUs
	f["premature"] = float64(rep.Premature)
	f["sent_window"] = float64(rep.Fabric.SentWindow)
	// Switch reports cover the whole run, so they conserve exactly.
	for _, sw := range rep.Fabric.Switches {
		f["total.splits"] += float64(sw.Splits)
		f["total.merges"] += float64(sw.Merges)
		f["total.evictions"] += float64(sw.Evictions)
		f["total.occupancy"] += float64(sw.Occupancy)
	}
	f["splits"], f["merges"], f["evictions"] = f["total.splits"], f["total.merges"], f["total.evictions"]
	if rep.Metrics != nil {
		simCounts(rep.Metrics, st.counts)
	}
	st.counts["partitions"] = float64(max(1, s.Opts.Partitions))
	return st, nil
}

func setUpFabric(partitions int) func(params) error {
	return func(p params) error {
		_, err := runFabric(fabricScenario(p.seed, partitions, 1e3, 1e3, false))
		return err
	}
}

// openFabric prepares the fabric workload. The partitioned variant first
// runs the serial timeline once, untimed, and every repetition must then
// reproduce its statistics exactly: partitioning trades nothing but time.
func openFabric(partitions int) func(params) (repFunc, error) {
	return func(p params) (repFunc, error) {
		warm, meas := int64(fabricWarmupNs)/p.shrink, int64(fabricMeasureNs)/p.shrink
		var serial map[string]float64
		if partitions > 1 {
			st, err := runFabric(fabricScenario(p.seed, 1, warm, meas, false))
			if err != nil {
				return nil, err
			}
			serial = st.fields
		}
		return func(mode repMode, _ *spanLog) (repStats, error) {
			st, err := runFabric(fabricScenario(p.seed, partitions, warm, meas, mode == counted))
			if err != nil {
				return st, err
			}
			for k, want := range serial {
				if st.fields[k] != want {
					st.failed++
					st.notes = append(st.notes, fmt.Sprintf("partitions=%d %s=%v, serial %v", partitions, k, st.fields[k], want))
				}
			}
			return st, nil
		}, nil
	}
}

// ---- dataplane_mix, dataplane_64 ----

// dataplane is the engine-less, socket-less switch loop: pre-serialised
// frames go in on the split port, come back on the merge port with the
// destination MAC flipped (the NF stand-in), and must leave byte-equal.
type dataplane struct {
	sw     *core.Switch
	fb     *core.FrameBurst
	frames [][]byte
	mid    [dpBurst][]byte // split-side emissions, serialised
	from   [dpBurst]int    // mid[i] came from frame from[i] of the burst
	out    []byte
	next   int // ring position in frames

	// phase times of the traced pass, ns: add, run, emit.
	phaseNs [3]int64
}

func genFrames(seed int64, fixed, n int) [][]byte {
	var sizes trafficgen.SizeDist = trafficgen.Datacenter{}
	if fixed > 0 {
		sizes = trafficgen.Fixed(fixed)
	}
	tg := newGen(sizes, seed)
	frames := make([][]byte, n)
	for i := range frames {
		p := tg.Next()
		frames[i] = p.Serialize()
		tg.Recycle(p)
	}
	return frames
}

func newParkSwitch(name string, slots int) (*core.Switch, error) {
	sw := core.NewSwitch(name)
	sw.AddL2Route(macNF, portMerge)
	sw.AddL2Route(macSink, portSink)
	_, err := sw.AttachPayloadPark(core.Config{Slots: slots, MaxExpiry: 1, SplitPort: portSplit, MergePort: portMerge}, -1)
	return sw, err
}

// newDataplane is the dataplane workloads' set-up: frame generation, the
// table-program load and the switch build.
func newDataplane(seed int64, fixed int) (*dataplane, error) {
	sw, err := newParkSwitch("bench/dataplane", dpSlots)
	if err != nil {
		return nil, err
	}
	return &dataplane{sw: sw, fb: sw.NewFrameBurst(dpBurst), frames: genFrames(seed, fixed, dpFrames)}, nil
}

// burstPhases names the spans of one burst: add, run, emit, for the split
// half and then the merge half.
var burstPhases = [6]string{"core.burst_add", "core.burst_run", "core.burst_emit", "core.burst_add", "core.burst_run", "core.burst_emit"}

// burst sends the next dpBurst frames around once and returns how many
// came back wrong. With a span log it also times the three phases per half.
func (d *dataplane) burst(spans *spanLog) (failed uint64) {
	timed := spans != nil
	batch := d.frames[d.next : d.next+dpBurst]
	if d.next += dpBurst; d.next+dpBurst > len(d.frames) {
		d.next = 0
	}
	var t [7]int64
	stamp := func(i int) {
		if timed {
			t[i] = sinceStart()
		}
	}
	stamp(0)
	d.fb.Reset()
	for _, f := range batch {
		if d.fb.Add(f, portSplit) != nil {
			failed++
		}
	}
	stamp(1)
	res := d.fb.Run()
	stamp(2)
	n := 0
	for i := range res {
		r := &res[i]
		if !r.OK || r.Em.Port != portMerge {
			failed++
			continue
		}
		d.mid[n] = r.Em.Pkt.AppendSerialize(d.mid[n][:0])
		copy(d.mid[n][:6], macSink[:])
		d.from[n] = i
		n++
	}
	stamp(3)
	d.fb.Reset()
	for i := 0; i < n; i++ {
		if d.fb.Add(d.mid[i], portMerge) != nil {
			failed++
		}
	}
	stamp(4)
	res = d.fb.Run()
	stamp(5)
	for i := range res {
		r := &res[i]
		if !r.OK || r.Em.Port != portSink {
			failed++
			continue
		}
		d.out = r.Em.Pkt.AppendSerialize(d.out[:0])
		if orig := batch[d.from[i]]; !bytes.Equal(d.out[:6], macSink[:]) || !bytes.Equal(d.out[6:], orig[6:]) {
			failed++
		}
	}
	stamp(6)
	if timed {
		d.phaseNs[0] += t[1] - t[0] + t[4] - t[3]
		d.phaseNs[1] += t[2] - t[1] + t[5] - t[4]
		d.phaseNs[2] += t[3] - t[2] + t[6] - t[5]
		root := spans.add("core.burst", t[0], t[6], -1)
		for i, name := range burstPhases {
			spans.add(name, t[i], t[i+1], root)
		}
	}
	return failed
}

func setUpDataplane(fixed int) func(params) error {
	return func(p params) error { _, err := newDataplane(p.seed, fixed); return err }
}

// openDataplane prepares a dataplane workload. Its counted mode is the span
// log: the runner hands one over exactly when the burst spans are armed.
func openDataplane(fixed, trips int) func(params) (repFunc, error) {
	return func(p params) (repFunc, error) {
		d, err := newDataplane(p.seed, fixed)
		if err != nil {
			return nil, err
		}
		bursts := trips / int(p.shrink) / dpBurst
		c := &d.sw.Programs()[0].C
		return func(_ repMode, spans *spanLog) (repStats, error) {
			st := newRepStats()
			d.phaseNs, d.next = [3]int64{}, 0
			s0, m0, e0 := c.Splits.Value(), c.Merges.Value(), c.Evictions.Value()
			for i := 0; i < bursts; i++ {
				st.failed += d.burst(spans)
			}
			st.packets = uint64(bursts * dpBurst)
			st.fields["splits"] = float64(c.Splits.Value() - s0)
			st.fields["merges"] = float64(c.Merges.Value() - m0)
			st.fields["evictions"] = float64(c.Evictions.Value() - e0)
			st.fields["premature"] = float64(c.PrematureEvictions.Value())
			if spans != nil {
				// Each frame passes each phase twice (split half, merge half).
				per := float64(2 * st.packets)
				st.counts["burst_add_ns"] = float64(d.phaseNs[0]) / per
				st.counts["burst_run_ns"] = float64(d.phaseNs[1]) / per
				st.counts["burst_emit_ns"] = float64(d.phaseNs[2]) / per
			}
			return st, nil
		}, nil
	}
}

// ---- live_chain ----

func liveScenario(seed int64, frames int, metrics bool) scenario.Scenario {
	return scenario.Scenario{
		Name:     "bench/live_chain",
		Topology: scenario.Live{Geometry: "chain", Pipes: 1, Frames: frames, Window: liveWindow},
		Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: liveSlots, MaxExpiry: 1},
		Traffic:  scenario.Traffic{Dist: trafficgen.Datacenter{}, Flows: 256},
		Observe:  scenario.Observe{Metrics: metrics},
		Opts:     scenario.RunOptions{Seed: seed},
	}
}

func openLive(p params) (repFunc, error) {
	frames := liveFrames / int(p.shrink)
	return func(mode repMode, _ *spanLog) (repStats, error) {
		st := newRepStats()
		rep, err := scenario.Run(context.Background(), liveScenario(p.seed, frames, mode == counted))
		if err != nil {
			return st, err
		}
		r := rep.Live
		st.packets = r.Delivered
		// A frame neither delivered nor dropped by the NF was lost.
		st.failed = r.Sent - r.Delivered - r.NFDropped - r.NFNotified
		f := st.fields
		f["sent"] = float64(r.Sent)
		f["delivered"] = float64(r.Delivered)
		f["nf_dropped"] = float64(r.NFDropped + r.NFNotified)
		f["splits"] = float64(r.Counters.Splits)
		f["merges"] = float64(r.Counters.Merges)
		f["evictions"] = float64(r.Counters.Evictions)
		f["premature"] = float64(r.Counters.PrematureEvictions)
		f["switch_rx"] = float64(r.Counters.Rx)
		f["switch_tx"] = float64(r.Counters.Tx)
		for _, n := range r.Counters.Drops {
			f["switch_drops"] += float64(n)
		}
		if rep.Metrics != nil {
			st.counts["rx_burst_mean"] = histMean(rep.Metrics, "pp_live_rx_burst_frames")
			st.counts["tx_batch_mean"] = histMean(rep.Metrics, "pp_live_tx_batch_frames")
		}
		return st, nil
	}, nil
}

// ---- probes ----

const probeRing = 1024 // packets or frames a probe cycles through

// mixPackets returns probeRing parsed datacenter-mix packets and their
// serialised frames.
func mixPackets(seed int64) ([]*packet.Packet, [][]byte) {
	frames := genFrames(seed, 0, probeRing)
	pkts := make([]*packet.Packet, len(frames))
	for i, f := range frames {
		p, err := packet.ParseAt(f, -1)
		if err != nil {
			panic(err) // frames we just serialised: only a bug fails here
		}
		pkts[i] = p
	}
	return pkts, frames
}

// largeOnly keeps the packets the split path accepts (payload >= 160 B).
func largeOnly(pkts []*packet.Packet) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range pkts {
		if len(p.Payload) >= core.BaseParkBytes {
			out = append(out, p)
		}
	}
	return out
}

// probes builds every per-layer probe. Each run(n) performs n calls and
// returns the time spent in the measured calls alone: a probe that has to
// undo its effect between calls (merge what it split, drain what it sent)
// does so off the clock.
func probes(seed int64) (ps []probe, cleanup func(), err error) {
	pkts, frames := mixPackets(seed)
	large := largeOnly(pkts)
	add := func(name, unit string, calls int, run func(n int) (time.Duration, error)) {
		ps = append(ps, probe{name: name, unit: unit, calls: calls, run: run})
	}

	// packet
	add("packet.parse_ns", "ns", 10_000, func(n int) (time.Duration, error) {
		var pkt packet.Packet
		var udp packet.UDP
		var tcp packet.TCP
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pkt.UDP, pkt.TCP = &udp, &tcp
			if err := packet.ParseAtInto(&pkt, frames[i%probeRing], -1); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	var serBuf []byte
	add("packet.serialize_ns", "ns", 10_000, func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			serBuf = pkts[i%probeRing].AppendSerialize(serBuf[:0])
		}
		return time.Since(t0), nil
	})

	// rmt: one pipe carrying the parking program, driven below core.
	sw, err := newParkSwitch("bench/probe", dpSlots)
	if err != nil {
		return nil, nil, err
	}
	pipe := sw.Pipe(0)
	add("rmt.fillphv_ns", "ns", 10_000, func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			phv := pipe.AcquirePHV()
			pipe.Parser().FillPHV(phv, pkts[i%probeRing], portSplit)
			pipe.ReleasePHV(phv)
		}
		return time.Since(t0), nil
	})
	// processPath times Pipeline.Process alone on one path. A split leaves
	// its packet tagged and a merge untags it again without the deparser
	// touching the payload, so alternating the two keeps every packet
	// valid; only the half named by timeSplit is on the clock.
	const group = 64
	phvs := make([]*rmt.PHV, group)
	headroom := make([]byte, core.BaseParkBytes, core.BaseParkBytes+2048)
	processPath := func(timeSplit bool) func(n int) (time.Duration, error) {
		return func(n int) (time.Duration, error) {
			var total time.Duration
			for done := 0; done < n; done += group {
				for _, in := range [2]rmt.PortID{portSplit, portMerge} {
					for j := range phvs {
						phvs[j] = pipe.AcquirePHV()
						pipe.Parser().FillPHV(phvs[j], large[(done+j)%len(large)], in)
						phvs[j].Headroom = headroom
					}
					t0 := time.Now()
					for _, phv := range phvs {
						pipe.Process(phv)
					}
					if timeSplit == (in == portSplit) {
						total += time.Since(t0)
					}
					for _, phv := range phvs {
						if phv.Drop {
							return 0, fmt.Errorf("rmt probe: packet dropped on port %d: %s", in, phv.DropWhy)
						}
						pipe.ReleasePHV(phv)
					}
				}
			}
			return total, nil
		}
	}
	add("rmt.process_split_ns", "ns", 10_048, processPath(true))
	add("rmt.process_merge_ns", "ns", 10_048, processPath(false))
	add("rmt.process_miss_ns", "ns", 10_048, func(n int) (time.Duration, error) {
		var total time.Duration
		for done := 0; done < n; done += group {
			for j := range phvs {
				phvs[j] = pipe.AcquirePHV()
				pipe.Parser().FillPHV(phvs[j], pkts[(done+j)%probeRing], portPlain)
			}
			t0 := time.Now()
			for _, phv := range phvs {
				pipe.Process(phv)
			}
			total += time.Since(t0)
			for _, phv := range phvs {
				pipe.ReleasePHV(phv)
			}
		}
		return total, nil
	})

	// prog
	add("prog.load_us", "us", 25, func(n int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			p := rmt.NewPipeline("bench/load")
			t0 := time.Now()
			_, err := prog.Load(prog.PayloadParkSpec(prog.ParkParams{
				Slots: fabricSlots, MaxExpiry: 1, SplitPort: int(portSplit), MergePort: int(portMerge),
				Blocks: core.BaseBlocks, BaseBlocks: core.BaseBlocks, BlockBytes: core.BlockBytes, MaxClock: core.MaxClock,
			}), prog.LoadOptions{Pipe: p})
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	})

	// core: InjectBatch per packet, by path. A split batch is merged back
	// (and a merge batch split first) off the clock.
	isw, err := newParkSwitch("bench/inject", dpSlots)
	if err != nil {
		return nil, nil, err
	}
	isw.AddL2Route(macGen, portSink)
	batch := make([]core.BatchPacket, group)
	results := make([]core.BatchResult, group)
	injectPath := func(timeSplit bool) func(n int) (time.Duration, error) {
		return func(n int) (time.Duration, error) {
			var total time.Duration
			for done := 0; done < n; done += group {
				for j := range batch {
					p := large[(done+j)%len(large)]
					p.Eth.Dst = macNF
					batch[j] = core.BatchPacket{Pkt: p, In: portSplit}
				}
				t0 := time.Now()
				isw.InjectBatch(batch, results)
				if timeSplit {
					total += time.Since(t0)
				}
				for j := range batch {
					if !results[j].OK {
						return 0, fmt.Errorf("inject probe: split dropped: %s", results[j].Reason)
					}
					results[j].Em.Pkt.Eth.Dst = macSink
					batch[j] = core.BatchPacket{Pkt: results[j].Em.Pkt, In: portMerge}
				}
				t0 = time.Now()
				isw.InjectBatch(batch, results)
				if !timeSplit {
					total += time.Since(t0)
				}
				for j := range batch {
					if !results[j].OK {
						return 0, fmt.Errorf("inject probe: merge dropped: %s", results[j].Reason)
					}
				}
			}
			return total, nil
		}
	}
	add("core.inject_split_ns", "ns", 10_048, injectPath(true))
	add("core.inject_merge_ns", "ns", 10_048, injectPath(false))
	add("core.inject_l2_ns", "ns", 10_048, func(n int) (time.Duration, error) {
		var total time.Duration
		for done := 0; done < n; done += group {
			for j := range batch {
				p := pkts[(done+j)%probeRing]
				p.Eth.Dst = macSink
				batch[j] = core.BatchPacket{Pkt: p, In: portPlain}
			}
			t0 := time.Now()
			isw.InjectBatch(batch, results)
			total += time.Since(t0)
			for j := range batch {
				if !results[j].OK {
					return 0, fmt.Errorf("inject probe: l2 dropped: %s", results[j].Reason)
				}
			}
		}
		return total, nil
	})

	// trafficgen: Next+Recycle, as the simulator's sources use it.
	for _, g := range []struct {
		name  string
		sizes trafficgen.SizeDist
	}{
		{"trafficgen.next_ns.datacenter", trafficgen.Datacenter{}},
		{"trafficgen.next_ns.fixed64", trafficgen.Fixed(64)},
		{"trafficgen.next_ns.fixed1500", trafficgen.Fixed(1500)},
	} {
		tg := newGen(g.sizes, seed)
		add(g.name, "ns", 10_000, func(n int) (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				tg.Recycle(tg.Next())
			}
			return time.Since(t0), nil
		})
	}

	// nf: Server.Handle over fresh generator packets (the NAT rewrites
	// headers, so a packet is handled once and regenerated off the clock).
	for _, c := range []struct {
		name  string
		chain *nf.Chain
	}{
		{"nf.chain_fwnatlb_ns", chainFWNATLB()},
		{"nf.macswap_ns", nf.NewChain(nf.MACSwap{})},
	} {
		srv := nf.NewServer(nf.ServerConfig{Chain: c.chain, RewriteMACs: true, NFMAC: macNF, NextHopMAC: macSink})
		tg := newGen(trafficgen.Datacenter{}, seed)
		held := make([]*packet.Packet, group)
		add(c.name, "ns", 10_048, func(n int) (time.Duration, error) {
			var total time.Duration
			for done := 0; done < n; done += group {
				for j := range held {
					held[j] = tg.Next()
				}
				t0 := time.Now()
				for _, p := range held {
					srv.Handle(p)
				}
				total += time.Since(t0)
				for _, p := range held {
					tg.Recycle(p)
				}
			}
			return total, nil
		})
	}

	// sim engine: 4096 events in flight, each re-arming itself.
	const inflight = 4096
	rng := uint64(0x9e3779b97f4a7c15) ^ uint64(seed)
	xorshift := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	hotDelay := func() int64 { return 100 + int64(xorshift()%1900) }          // <= 2 µs
	farDelay := func() int64 { return 132_000 + int64(xorshift()%4_000_000) } // past the hot wheel's ~131 µs
	engineClosure := func(delay func() int64) func(n int) (time.Duration, error) {
		return func(n int) (time.Duration, error) {
			e := sim.NewEngine()
			left := n
			var rearm func()
			rearm = func() {
				if left--; left >= inflight {
					e.Schedule(delay(), rearm)
				}
			}
			for i := 0; i < inflight && i < n; i++ {
				e.Schedule(delay(), rearm)
			}
			t0 := time.Now()
			e.Run(math.MaxInt64)
			return time.Since(t0), nil
		}
	}
	add("sim.engine_hot_ns", "ns", 20_000, engineClosure(hotDelay))
	add("sim.engine_far_ns", "ns", 20_000, engineClosure(farDelay))
	add("sim.engine_parcel_ns", "ns", 20_000, func(n int) (time.Duration, error) {
		e := sim.NewEngine()
		left := n
		var rearm func(sim.Parcel)
		rearm = func(p sim.Parcel) {
			if left--; left >= inflight {
				e.ScheduleParcel(hotDelay(), rearm, p)
			}
		}
		for i := 0; i < inflight && i < n; i++ {
			e.ScheduleParcel(hotDelay(), rearm, sim.Parcel{})
		}
		t0 := time.Now()
		e.Run(math.MaxInt64)
		return time.Since(t0), nil
	})

	// sim link and server station: 64 packets circulating.
	const circulating = 64
	add("sim.link_hop_ns", "ns", 10_000, func(n int) (time.Duration, error) {
		e := sim.NewEngine()
		left := n
		var link *sim.Link
		link = sim.NewLink(e, 100e9, 500, 1<<20, func(p sim.Parcel) {
			if left--; left >= circulating {
				link.Send(p)
			}
		}, nil)
		for i := 0; i < circulating && i < n; i++ {
			link.Send(sim.Parcel{Pkt: pkts[i]})
		}
		t0 := time.Now()
		e.Run(math.MaxInt64)
		if link.Drops.Value() != 0 {
			return 0, fmt.Errorf("link probe: %d queue drops", link.Drops.Value())
		}
		return time.Since(t0), nil
	})
	add("sim.server_pkt_ns", "ns", 10_000, func(n int) (time.Duration, error) {
		e := sim.NewEngine()
		left := n
		var drops int
		var srv *sim.ServerSim
		srv = sim.NewServerSim(e, fabricServer, nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})}), seed,
			func(p sim.Parcel) {
				if left--; left >= circulating {
					srv.Receive(p)
				}
			},
			func(sim.Parcel, string) { drops++ }, nil)
		for i := 0; i < circulating && i < n; i++ {
			srv.Receive(sim.Parcel{Pkt: pkts[i]})
		}
		t0 := time.Now()
		e.Run(math.MaxInt64)
		if drops != 0 {
			return 0, fmt.Errorf("server probe: %d drops", drops)
		}
		return time.Since(t0), nil
	})

	// wire: one burst at a time across two bound loopback sockets. The
	// half not being measured (the drain, or the send) runs off the clock.
	tx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tx.Close()
		return nil, nil, err
	}
	rxAddr := rx.LocalAddr().(*net.UDPAddr)
	bs := wire.NewBatchSender(tx)
	br := wire.NewBurstReader(rx, wire.DefaultBurst)
	wirePath := func(timeSend bool) func(n int) (time.Duration, error) {
		return func(n int) (time.Duration, error) {
			var total time.Duration
			for done := 0; done < n; done += wire.DefaultBurst {
				t0 := time.Now()
				for j := 0; j < wire.DefaultBurst; j++ {
					bs.Commit(pkts[(done+j)%probeRing].AppendSerialize(bs.Begin()), rxAddr, nil)
				}
				if errs := bs.Flush(); errs != 0 {
					return 0, fmt.Errorf("wire probe: %d send errors", errs)
				}
				if timeSend {
					total += time.Since(t0)
				}
				t0 = time.Now()
				for pending := wire.DefaultBurst; pending > 0; {
					// A frame the kernel dropped must fail the probe, not hang it.
					if err := rx.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
						return 0, err
					}
					got, err := br.Read()
					if err != nil {
						return 0, fmt.Errorf("wire probe: drain: %w", err)
					}
					pending -= got
				}
				if !timeSend {
					total += time.Since(t0)
				}
			}
			return total, nil
		}
	}
	add("wire.send_batched_ns", "ns", 2_048, wirePath(true))
	add("wire.recv_burst_ns", "ns", 2_048, wirePath(false))
	return ps, func() { tx.Close(); rx.Close() }, nil
}
