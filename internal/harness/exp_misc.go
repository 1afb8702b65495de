package harness

import (
	"bytes"
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/pcap"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func init() {
	register(Experiment{
		ID:      "fig10",
		Title:   "Per-server goodput with 8 NF servers sharing the switch, 384 B packets",
		Paper:   "all 8 servers improve consistently; average goodput gain 31.22%",
		Collect: collectFig10,
	})
	register(Experiment{
		ID:      "fig11",
		Title:   "Per-server latency with 8 NF servers, 384 B packets (lower is better)",
		Paper:   "average latency win 9.4%, from reduced PCIe/copy time per packet",
		Collect: collectFig11,
	})
	register(Experiment{
		ID:      "fig12",
		Title:   "Goodput vs firewall drop rate with Explicit Drops and Expiry thresholds 2/10",
		Paper:   "aggressive eviction (EXP=2) ~ Explicit Drops; conservative EXP=10 without Explicit Drops loses goodput as dropped payloads clog the table",
		Collect: collectFig12,
	})
	register(Experiment{
		ID:      "fig14",
		Title:   "Peak goodput with zero premature evictions vs reserved switch memory (EXP=1, 384 B, FW->NAT)",
		Paper:   "goodput grows with reserved memory: 17.81% SRAM sustains at most 3.44 Gbps; more memory pushes the eviction onset higher",
		Collect: collectFig14,
	})
	register(Experiment{
		ID:      "table1",
		Title:   "Switch resource utilization (Tofino budgets from internal/rmt)",
		Paper:   "SRAM 25.94%/33.75% avg/peak (4 servers), 38.23%/48.75% (8 servers); TCAM 0.69%; VLIW 14.58%; exact xbar 16.47%; ternary xbar 0.88%; PHV 37.65%",
		Collect: collectTable1,
	})
	register(Experiment{
		ID:      "equiv",
		Title:   "Functional equivalence: byte-identical captures with and without PayloadPark (§6.2.6)",
		Paper:   "PCAP files identical, zero premature evictions",
		Collect: collectEquiv,
	})
}

// --- fig10/fig11: the §6.2.3 multi-server comparison ---

// multiServerArms runs the §6.2.3 deployment — about 40% of switch
// memory, sliced between the two servers of each pipe — as baseline and
// as PayloadPark (parkArms order), each at its own peak healthy
// per-server send. common instead runs both at 85% of the baseline's
// peak: a sub-saturation rate, where a latency win comes from per-packet
// serialization/PCIe/copy time rather than queue depth ("These latency
// savings are on the PCIe bus", §6.2.3).
func (r *Result) multiServerArms(o Options, name string, common bool) (ms [2]*sim.MultiServerResult, err error) {
	base := scenario.Scenario{
		Name:     name,
		Topology: scenario.MultiServer{Servers: 8},
		Parking:  scenario.Parking{Slots: SlotsForSRAMPct(0.20, false)}, // 40% per pipe / 2 servers
		Traffic:  scenario.Traffic{Dist: trafficgen.Fixed(384)},
		Server:   MultiServer10G(),
		Opts:     o.opts(),
	}
	// The peaks are searched on a single-server equivalent (pipes and
	// servers are isolated, so the multi-server run decomposes), with a
	// shallower search over a shorter window than the figures' own.
	probe := base.With(func(s *scenario.Scenario) {
		s.Topology = scenario.Testbed{}
		s.Traffic.Flows = sim.MultiServerFlows
		s.Opts = o.stretched(0.5)
	})
	var send [2]float64
	for i, mode := range parkArms {
		if send[i], _, err = peakHealthySend(o, arm(probe, "probe", mode), 2e9, 16e9, o.iters()-1, healthy); err != nil {
			return ms, err
		}
	}
	if common {
		send[0] *= 0.85
		send[1] = send[0]
	}
	for i, mode := range parkArms {
		rep, err := r.run(o, arm(base, "run", mode)(send[i]))
		if err != nil {
			return ms, err
		}
		ms[i] = rep.MultiServer
	}
	return ms, nil
}

func collectFig10(o Options) (*Result, error) {
	res := &Result{}
	ms, err := res.multiServerArms(o, "fig10", false)
	if err != nil {
		return nil, err
	}
	t := res.table("", "server\tbase gput(Gbps)\tpp gput(Gbps)\tgain")
	var gain float64
	for i := range ms[0].PerServer {
		b, p := ms[0].PerServer[i].GoodputGbps, ms[1].PerServer[i].GoodputGbps
		t.row("%d\t%.3f\t%.3f\t%s", i+1, b, p, pct(p, b))
		gain += gainPct(b, p)
	}
	t.note("average goodput gain %.2f%% (paper: 31.22%%)", gain/float64(len(ms[0].PerServer)))
	t.note("switch SRAM with 8 programs: avg %.2f%% peak %.2f%% (paper: 38.23%%/48.75%%)",
		ms[1].SRAMAvgPct, ms[1].SRAMPeakPct)
	return res, nil
}

func collectFig11(o Options) (*Result, error) {
	res := &Result{}
	ms, err := res.multiServerArms(o, "fig11", true)
	if err != nil {
		return nil, err
	}
	t := res.table("", "server\tbase lat(us)\tpp lat(us)\twin")
	var win float64
	for i := range ms[0].PerServer {
		b, p := ms[0].PerServer[i].AvgLatencyUs, ms[1].PerServer[i].AvgLatencyUs
		t.row("%d\t%.2f\t%.2f\t%s", i+1, b, p, pct(-p, -b))
		win += savingsPct(b, p)
	}
	t.note("average latency win %.2f%% (paper: 9.4%%)", win/float64(len(ms[0].PerServer)))
	return res, nil
}

// --- fig12: explicit drops × expiry thresholds, as one declarative grid ---

func collectFig12(o Options) (*Result, error) {
	fractions := []float64{0, 0.0625, 0.125, 0.25, 0.5}
	if o.Quick {
		fractions = []float64{0.125, 0.5}
	}
	fracAxis := scenario.Axis{Name: "drop_frac"}
	for _, f := range fractions {
		fracAxis.Points = append(fracAxis.Points, scenario.AxisPoint{
			Label: fmt.Sprintf("%g", f),
			Set:   func(s *scenario.Scenario) { s.Chain = ChainFWNATDrop(f) },
		})
	}
	variant := func(name string, mode sim.ParkMode, exp uint32, explicit bool) scenario.AxisPoint {
		return scenario.AxisPoint{Label: name, Set: func(s *scenario.Scenario) {
			s.Parking = scenario.Parking{Mode: mode, Slots: MacroSlots, MaxExpiry: exp, ExplicitDrop: explicit}
		}}
	}
	varAxis := scenario.AxisOf("variant",
		variant("baseline", sim.ParkNone, 1, false),
		variant("no-explicit EXP=2", sim.ParkEdge, 2, false),
		variant("no-explicit EXP=10", sim.ParkEdge, 10, false),
		variant("explicit EXP=2", sim.ParkEdge, 2, true),
		variant("explicit EXP=10", sim.ParkEdge, 10, true),
	)
	// Saturate a 10GbE link so goodput differences reflect how much of
	// the wire each variant's packet mix occupies. Windows are longer
	// than elsewhere: orphaned payloads reach steady-state occupancy only
	// after MAX_EXP full wraps of the table index (~20 ms per wrap at
	// this rate with the macro table size).
	opts := o.opts()
	opts.WarmupNs, opts.MeasureNs = 250e6, 100e6
	if o.Quick {
		opts.WarmupNs, opts.MeasureNs = 120e6, 50e6
	}
	res := &Result{}
	grid, err := res.sweep(o, scenario.Sweep{
		// The 40GbE calibration on a 10GbE link; the axes set chain and parking.
		Base: fixedScenario(o, "fig12", 0, nil).With(func(s *scenario.Scenario) {
			s.Topology = scenario.Testbed{}
			s.Traffic.SendBps = 12e9
			s.Opts = opts
		}),
		Axes: []scenario.Axis{fracAxis, varAxis},
	})
	if err != nil {
		return nil, err
	}
	header := "drop-rate"
	for _, v := range varAxis.Points {
		header += "\t" + v.Label
	}
	t := res.table("", header)
	for i, f := range fractions {
		cells := []string{fmt.Sprintf("%.1f%%", 100*f)}
		for j := range varAxis.Points {
			cells = append(cells, fmt.Sprintf("%.3f", grid.At(i, j).Report.GoodputGbps))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.note("(goodput in Gbps at 12G offered on a 10GbE link; higher is better)")
	return res, nil
}

// --- fig14: peak no-eviction goodput vs reserved memory ---

// evictionScenario is the Fig. 14-class base: 384 B packets through
// FW->NAT on 40GbE into a server with periodic receive stalls, parked
// with EXP=1 in a table of the given size, measured over windows that
// span several stall periods.
func evictionScenario(o Options, name string, slots int, server sim.ServerModel) scenario.Scenario {
	server.ServiceJitterPct = 0.2
	return fixedScenario(o, name, 384, ChainFWNAT).With(func(s *scenario.Scenario) {
		s.Parking.Mode, s.Parking.Slots = sim.ParkEdge, slots
		s.Server = server
		s.Opts.WarmupNs, s.Opts.MeasureNs = 30e6, 75e6
		if o.Quick {
			s.Opts.WarmupNs, s.Opts.MeasureNs = 15e6, 50e6
		}
	})
}

func collectFig14(o Options) (*Result, error) {
	pcts := []float64{0.10, 0.1781, 0.2156, 0.2594, 0.32}
	if o.Quick {
		pcts = []float64{0.1781, 0.2594}
	}
	res := &Result{}
	t := res.table("", "SRAM reserved\tslots\tpeak no-eviction goodput(Gbps)\tpeak send(Gbps)")
	for _, p := range pcts {
		slots := SlotsForSRAMPct(p, false)
		base := evictionScenario(o, fmt.Sprintf("fig14-%dslots", slots), slots, MemorySweepServer())
		send, rep, err := peakHealthySend(o, atSend(base), 2e9, 45e9, o.iters(), noPrematureEvictions)
		if err != nil {
			return nil, err
		}
		res.record(rep)
		t.row("%.2f%%\t%d\t%.3f\t%.1f", 100*p, slots, rep.GoodputGbps, send/1e9)
	}
	return res, nil
}

// --- table1: switch resource declaration ---

func collectTable1(o Options) (*Result, error) {
	// Pipe 0's share of the switch with 4 NF servers (one group per pipe,
	// ~26% of pipe SRAM each) and with the §6.2.3 deployment's 8 (two per
	// pipe, ~20% each: 40% reserved).
	park := func(sramPct float64) sim.Sections {
		return sim.Sections{Parking: sim.Parking{Mode: sim.ParkEdge, Slots: SlotsForSRAMPct(sramPct, false), MaxExpiry: 1}}
	}
	var u [2]rmt.Usage
	for i, g := range []*sim.Graph{
		sim.SingleSwitchGraph("table1-4srv", park(0.26), []rmt.PortID{0, 16, 32, 48}, true),
		sim.MultiServer{Servers: 8}.Graph(park(0.20)),
	} {
		sws, err := g.RealiseAll()
		if err != nil {
			return nil, err
		}
		u[i] = sws[0].Pipe(0).Resources()
	}
	u4, u8 := u[0], u[1]

	res := &Result{}
	t := res.table("", "resource\tmeasured\tpaper")
	t.row("SRAM (4 NF servers)\t%.2f%% avg / %.2f%% peak\t25.94%% avg / 33.75%% peak", u4.SRAMAvgPct, u4.SRAMPeakPct)
	t.row("SRAM (8 NF servers)\t%.2f%% avg / %.2f%% peak\t38.23%% avg / 48.75%% peak", u8.SRAMAvgPct, u8.SRAMPeakPct)
	t.row("TCAM\t%.2f%%\t0.69%%", u4.TCAMPct)
	t.row("VLIW\t%.2f%%\t14.58%%", u4.VLIWPct)
	t.row("Exact match crossbar\t%.2f%%\t16.47%%", u4.ExactXbarPct)
	t.row("Ternary match crossbar\t%.2f%%\t0.88%%", u4.TernXbarPct)
	t.row("Packet header vector\t%.2f%%\t37.65%%", u4.PHVPct)
	return res, nil
}

// --- equiv: §6.2.6 functional equivalence ---

func collectEquiv(o Options) (*Result, error) {
	n := 5000
	if o.Quick {
		n = 1000
	}
	capture := func(p sim.Parking) ([]pcap.Record, *core.Program, error) {
		tb, err := sim.NewInProcess(sim.Sections{Parking: p})
		if err != nil {
			return nil, nil, err
		}
		gen := trafficgen.New(trafficgen.Config{
			Sizes: trafficgen.Datacenter{}, Flows: 512,
			SrcMAC: sim.MACGen, DstMAC: sim.MACNF,
			DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80, Seed: o.Seed,
		})
		var out []pcap.Record
		for i := 0; i < n; i++ {
			if got := tb.Process(gen.Next()); got != nil {
				out = append(out, pcap.Record{TimestampNs: int64(i) * 1e3, Data: got.Serialize()})
			}
		}
		return out, tb.Prog, nil
	}

	baseRecs, _, err := capture(sim.Parking{})
	if err != nil {
		return nil, err
	}
	ppRecs, progPP, err := capture(sim.Parking{Mode: sim.ParkEdge, Slots: MacroSlots, MaxExpiry: 1})
	if err != nil {
		return nil, err
	}

	// Serialize both captures to real pcap bytes, then reread and compare,
	// exactly as DPDK-pdump files would be diffed.
	var bufA, bufB bytes.Buffer
	wa, wb := pcap.NewWriter(&bufA), pcap.NewWriter(&bufB)
	for _, r := range baseRecs {
		if err := wa.WritePacket(r); err != nil {
			return nil, err
		}
	}
	for _, r := range ppRecs {
		if err := wb.WritePacket(r); err != nil {
			return nil, err
		}
	}
	ra, err := pcap.ReadAll(&bufA)
	if err != nil {
		return nil, err
	}
	rb, err := pcap.ReadAll(&bufB)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	identical := pcap.Equal(ra, rb)
	res.table("", "").note("packets=%d captures identical=%t premature evictions=%d",
		len(ra), identical, progPP.C.PrematureEvictions.Value())
	if !identical {
		return res, fmt.Errorf("harness: functional equivalence violated")
	}
	return res, nil
}
