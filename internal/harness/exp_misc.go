package harness

import (
	"bytes"
	"fmt"
	"io"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/pcap"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func init() {
	register(experiment(Experiment{
		ID:    "fig10",
		Title: "Per-server goodput with 8 NF servers sharing the switch, 384 B packets",
		Paper: "all 8 servers improve consistently; average goodput gain 31.22%",
	}, collectFig10, renderMultiServer))
	register(experiment(Experiment{
		ID:    "fig11",
		Title: "Per-server latency with 8 NF servers, 384 B packets (lower is better)",
		Paper: "average latency win 9.4%, from reduced PCIe/copy time per packet",
	}, collectFig11, renderMultiServer))
	register(experiment(Experiment{
		ID:    "fig12",
		Title: "Goodput vs firewall drop rate with Explicit Drops and Expiry thresholds 2/10",
		Paper: "aggressive eviction (EXP=2) ~ Explicit Drops; conservative EXP=10 without Explicit Drops loses goodput as dropped payloads clog the table",
	}, collectFig12, renderFig12))
	register(experiment(Experiment{
		ID:    "fig14",
		Title: "Peak goodput with zero premature evictions vs reserved switch memory (EXP=1, 384 B, FW->NAT)",
		Paper: "goodput grows with reserved memory: 17.81% SRAM sustains at most 3.44 Gbps; more memory pushes the eviction onset higher",
	}, collectFig14, renderFig14))
	register(experiment(Experiment{
		ID:    "table1",
		Title: "Switch resource utilization (Tofino budgets from DESIGN.md §6)",
		Paper: "SRAM 25.94%/33.75% avg/peak (4 servers), 38.23%/48.75% (8 servers); TCAM 0.69%; VLIW 14.58%; exact xbar 16.47%; ternary xbar 0.88%; PHV 37.65%",
	}, collectTable1, renderTable1))
	register(experiment(Experiment{
		ID:    "equiv",
		Title: "Functional equivalence: byte-identical captures with and without PayloadPark (§6.2.6)",
		Paper: "PCAP files identical, zero premature evictions",
	}, collectEquiv, renderEquiv))
}

// --- fig10/fig11: the §6.2.3 multi-server comparison ---

// multiServerScenario is the §6.2.3 deployment as a Scenario: about 40%
// of switch memory, sliced between the two servers of each pipe.
func multiServerScenario(o Options, mode sim.ParkMode, sendBps float64) scenario.Scenario {
	return scenario.Scenario{
		Name:     "multiserver",
		Topology: scenario.MultiServer{Servers: 8},
		Parking: scenario.Parking{
			Mode:  mode,
			Slots: SlotsForSRAMPct(0.20, false), // 40% per pipe / 2 servers
		},
		Traffic: scenario.Traffic{SendBps: sendBps, Dist: trafficgen.Fixed(384)},
		Server:  MultiServer10G(),
		Opts:    o.scnOpts(),
	}
}

// multiServerPeak finds each deployment's peak healthy per-server send
// by searching a single-server equivalent (pipes and servers are
// isolated, so the multi-server run decomposes).
func multiServerPeak(o Options, mode sim.ParkMode) (float64, error) {
	iters := 6
	if o.Quick {
		iters = 4
	}
	mk := func(bps float64) scenario.Scenario {
		return scenario.Scenario{
			Name:     "ms-probe",
			Topology: scenario.Testbed{},
			Parking:  scenario.Parking{Mode: mode, Slots: SlotsForSRAMPct(0.20, false)},
			Traffic:  scenario.Traffic{SendBps: bps, Dist: trafficgen.Fixed(384), Flows: sim.MultiServerFlows},
			Server:   MultiServer10G(),
			Opts:     scenario.RunOptions{Seed: o.Seed, WarmupNs: o.warmup(), MeasureNs: o.measure() / 2},
		}
	}
	peak, _, err := peakHealthySend(o, mk, 2e9, 16e9, iters, healthy)
	if err != nil {
		return 0, err
	}
	return peak, nil
}

// ServerCompareRow is one server's base-vs-parked comparison.
type ServerCompareRow struct {
	Server int `json:"server"`
	// Goodput in the paper's header units (derived from the delivered
	// packet rate; see headerGoodputGbps).
	BaseGoodputGbps float64 `json:"base_goodput_gbps"`
	PPGoodputGbps   float64 `json:"pp_goodput_gbps"`
	GainPct         float64 `json:"gain_pct"`
	BaseLatencyUs   float64 `json:"base_latency_us"`
	PPLatencyUs     float64 `json:"pp_latency_us"`
	LatencyWinPct   float64 `json:"latency_win_pct"`
}

// MultiServerCompareResult is the structured fig10/fig11 output.
type MultiServerCompareResult struct {
	// Latency selects the fig11 rendering (latency columns).
	Latency bool `json:"latency"`
	// BaseSendBps/PPSendBps are the per-server offered loads compared.
	BaseSendBps float64 `json:"base_send_bps"`
	PPSendBps   float64 `json:"pp_send_bps"`
	// Base and PP are the full multi-server reports.
	Base *scenario.Report `json:"base"`
	PP   *scenario.Report `json:"pp"`
	// Rows are the per-server comparisons; the averages summarize them.
	Rows          []ServerCompareRow `json:"rows"`
	AvgGainPct    float64            `json:"avg_gain_pct"`
	AvgLatWinPct  float64            `json:"avg_lat_win_pct"`
	PPSRAMAvgPct  float64            `json:"pp_sram_avg_pct"`
	PPSRAMPeakPct float64            `json:"pp_sram_peak_pct"`
}

func collectMultiServer(o Options, latency bool) (*MultiServerCompareResult, error) {
	baseSend, err := multiServerPeak(o, sim.ParkNone)
	if err != nil {
		return nil, err
	}
	ppSend, err := multiServerPeak(o, sim.ParkEdge)
	if err != nil {
		return nil, err
	}
	if latency {
		// Latency is compared at a common sub-saturation rate, where the
		// win comes from per-packet serialization/PCIe/copy time rather
		// than queue depth ("These latency savings are on the PCIe bus",
		// §6.2.3).
		common := 0.85 * baseSend
		baseSend, ppSend = common, common
	}
	base, err := run(o, multiServerScenario(o, sim.ParkNone, baseSend))
	if err != nil {
		return nil, err
	}
	pp, err := run(o, multiServerScenario(o, sim.ParkEdge, ppSend))
	if err != nil {
		return nil, err
	}

	res := &MultiServerCompareResult{
		Latency: latency, BaseSendBps: baseSend, PPSendBps: ppSend,
		Base: base, PP: pp,
		PPSRAMAvgPct:  pp.MultiServer.SRAMAvgPct,
		PPSRAMPeakPct: pp.MultiServer.SRAMPeakPct,
	}
	var gainSum, latSum float64
	for i := range base.MultiServer.PerServer {
		b, p := base.MultiServer.PerServer[i], pp.MultiServer.PerServer[i]
		row := ServerCompareRow{
			Server:          i + 1,
			BaseGoodputGbps: headerGoodputGbps(b),
			PPGoodputGbps:   headerGoodputGbps(p),
			BaseLatencyUs:   b.AvgLatencyUs,
			PPLatencyUs:     p.AvgLatencyUs,
		}
		if row.BaseGoodputGbps > 0 {
			row.GainPct = 100 * (row.PPGoodputGbps - row.BaseGoodputGbps) / row.BaseGoodputGbps
		}
		if b.AvgLatencyUs > 0 {
			row.LatencyWinPct = 100 * (b.AvgLatencyUs - p.AvgLatencyUs) / b.AvgLatencyUs
		}
		gainSum += row.GainPct
		latSum += row.LatencyWinPct
		res.Rows = append(res.Rows, row)
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.AvgGainPct = gainSum / n
		res.AvgLatWinPct = latSum / n
	}
	return res, nil
}

func collectFig10(o Options) (*MultiServerCompareResult, error) { return collectMultiServer(o, false) }
func collectFig11(o Options) (*MultiServerCompareResult, error) { return collectMultiServer(o, true) }

func renderMultiServer(res *MultiServerCompareResult, w io.Writer) error {
	tw := newTable(w)
	if res.Latency {
		fmt.Fprintln(tw, "server\tbase lat(us)\tpp lat(us)\twin")
	} else {
		fmt.Fprintln(tw, "server\tbase gput(Gbps)\tpp gput(Gbps)\tgain")
	}
	for _, r := range res.Rows {
		if res.Latency {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%s\n", r.Server, r.BaseLatencyUs, r.PPLatencyUs,
				pct(-r.PPLatencyUs, -r.BaseLatencyUs))
		} else {
			fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%s\n", r.Server, r.BaseGoodputGbps, r.PPGoodputGbps,
				pct(r.PPGoodputGbps, r.BaseGoodputGbps))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if res.Latency {
		fmt.Fprintf(w, "average latency win %.2f%% (paper: 9.4%%)\n", res.AvgLatWinPct)
	} else {
		fmt.Fprintf(w, "average goodput gain %.2f%% (paper: 31.22%%)\n", res.AvgGainPct)
		fmt.Fprintf(w, "switch SRAM with 8 programs: avg %.2f%% peak %.2f%% (paper: 38.23%%/48.75%%)\n",
			res.PPSRAMAvgPct, res.PPSRAMPeakPct)
	}
	return nil
}

// headerGoodputGbps converts a delivered packet rate into the paper's
// header-unit goodput (42 B of useful header per packet, §6.1).
func headerGoodputGbps(r sim.Result) float64 {
	return r.ToNFMpps * 1e6 * float64(packet.HeaderUnitLen) * 8 / 1e9
}

// --- fig12: explicit drops × expiry thresholds, as one declarative grid ---

// Fig12Result is the structured fig12 output: a drop-fraction × variant
// goodput grid (axis 0 the blacklist fraction, axis 1 the variant).
type Fig12Result struct {
	Fractions []float64             `json:"fractions"`
	Variants  []string              `json:"variants"`
	Sweep     *scenario.SweepReport `json:"sweep"`
}

func collectFig12(o Options) (*Fig12Result, error) {
	fractions := []float64{0, 0.0625, 0.125, 0.25, 0.5}
	if o.Quick {
		fractions = []float64{0.125, 0.5}
	}
	type variant struct {
		name     string
		pp       bool
		exp      uint32
		explicit bool
	}
	variants := []variant{
		{"baseline", false, 1, false},
		{"no-explicit EXP=2", true, 2, false},
		{"no-explicit EXP=10", true, 10, false},
		{"explicit EXP=2", true, 2, true},
		{"explicit EXP=10", true, 10, true},
	}
	// Saturate a 10GbE link so goodput differences reflect how much of
	// the wire each variant's packet mix occupies. Windows are longer
	// than elsewhere: orphaned payloads reach steady-state occupancy only
	// after MAX_EXP full wraps of the table index (~20 ms per wrap at
	// this rate with the macro table size).
	warmup, measure := int64(250e6), int64(100e6)
	if o.Quick {
		warmup, measure = 120e6, 50e6
	}
	base := scenario.Scenario{
		Name:     "fig12",
		Topology: scenario.Testbed{},
		Traffic:  scenario.Traffic{SendBps: 12e9, Dist: trafficgen.Datacenter{}},
		Server:   OpenNetVM40G(),
		Opts:     scenario.RunOptions{Seed: o.Seed, WarmupNs: warmup, MeasureNs: measure},
	}
	fracAxis := scenario.Axis{Name: "drop_frac"}
	for _, f := range fractions {
		f := f
		fracAxis.Points = append(fracAxis.Points, scenario.AxisPoint{
			Label: fmt.Sprintf("%g", f),
			Set:   func(s *scenario.Scenario) { s.Chain = ChainFWNATDrop(f) },
		})
	}
	varAxis := scenario.Axis{Name: "variant"}
	for _, v := range variants {
		v := v
		varAxis.Points = append(varAxis.Points, scenario.AxisPoint{
			Label: v.name,
			Set: func(s *scenario.Scenario) {
				if v.pp {
					s.Parking.Mode = sim.ParkEdge
				}
				s.Parking.Slots = MacroSlots
				s.Parking.MaxExpiry = v.exp
				s.Parking.ExplicitDrop = v.explicit
			},
		})
	}
	grid, err := runSweep(o, scenario.Sweep{Base: base, Axes: []scenario.Axis{fracAxis, varAxis}})
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Fractions: fractions, Sweep: grid}
	for _, v := range variants {
		res.Variants = append(res.Variants, v.name)
	}
	return res, nil
}

func renderFig12(res *Fig12Result, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprint(tw, "drop-rate")
	for _, v := range res.Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for i, f := range res.Fractions {
		fmt.Fprintf(tw, "%.1f%%", 100*f)
		for j := range res.Variants {
			fmt.Fprintf(tw, "\t%.3f", res.Sweep.At(i, j).Report.GoodputGbps)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw, "(goodput in Gbps at 12G offered on a 10GbE link; higher is better)")
	return tw.Flush()
}

// --- fig14: peak no-eviction goodput vs reserved memory ---

// Fig14Row is one reserved-memory level's search result.
type Fig14Row struct {
	SRAMPct      float64          `json:"sram_pct"`
	Slots        int              `json:"slots"`
	PeakSendGbps float64          `json:"peak_send_gbps"`
	Peak         *scenario.Report `json:"peak"`
}

// Fig14Result is the structured fig14 output.
type Fig14Result struct {
	Rows []Fig14Row `json:"rows"`
}

func collectFig14(o Options) (*Fig14Result, error) {
	pcts := []float64{0.10, 0.1781, 0.2156, 0.2594, 0.32}
	if o.Quick {
		pcts = []float64{0.1781, 0.2594}
	}
	iters := 7
	if o.Quick {
		iters = 5
	}
	server := MemorySweepServer()
	server.ServiceJitterPct = 0.2
	warmup, measure := int64(30e6), int64(75e6)
	if o.Quick {
		warmup, measure = 15e6, 50e6
	}
	res := &Fig14Result{}
	for _, p := range pcts {
		slots := SlotsForSRAMPct(p, false)
		mk := func(bps float64) scenario.Scenario {
			return scenario.Scenario{
				Name:     "fig14",
				Topology: scenario.Testbed{LinkBps: 40e9},
				Parking:  scenario.Parking{Mode: sim.ParkEdge, Slots: slots, MaxExpiry: 1},
				Traffic:  scenario.Traffic{SendBps: bps, Dist: trafficgen.Fixed(384)},
				Chain:    ChainFWNAT,
				Server:   server,
				Opts:     scenario.RunOptions{Seed: o.Seed, WarmupNs: warmup, MeasureNs: measure},
			}
		}
		peakSend, rep, err := peakHealthySend(o, mk, 2e9, 45e9, iters, noPrematureEvictions)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig14Row{
			SRAMPct: 100 * p, Slots: slots, PeakSendGbps: peakSend / 1e9, Peak: rep,
		})
	}
	return res, nil
}

func renderFig14(res *Fig14Result, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "SRAM reserved\tslots\tpeak no-eviction goodput(Gbps)\tpeak send(Gbps)")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%.2f%%\t%d\t%.3f\t%.1f\n", r.SRAMPct, r.Slots, r.Peak.GoodputGbps, r.PeakSendGbps)
	}
	return tw.Flush()
}

// --- table1: switch resource declaration ---

// Table1Result is the structured resource-utilization table.
type Table1Result struct {
	SRAM4AvgPct  float64 `json:"sram_4srv_avg_pct"`
	SRAM4PeakPct float64 `json:"sram_4srv_peak_pct"`
	SRAM8AvgPct  float64 `json:"sram_8srv_avg_pct"`
	SRAM8PeakPct float64 `json:"sram_8srv_peak_pct"`
	TCAMPct      float64 `json:"tcam_pct"`
	VLIWPct      float64 `json:"vliw_pct"`
	ExactXbarPct float64 `json:"exact_xbar_pct"`
	TernXbarPct  float64 `json:"tern_xbar_pct"`
	PHVPct       float64 `json:"phv_pct"`
}

func collectTable1(o Options) (*Table1Result, error) {
	// 4 NF servers: one program per pipe, ~26% of pipe SRAM each.
	sw4 := core.NewSwitch("table1-4srv")
	for pipe := 0; pipe < 4; pipe++ {
		base := rmt.PortID(core.PortsPerPipe * pipe)
		if _, err := sw4.AttachPayloadPark(core.Config{
			Slots: SlotsForSRAMPct(0.26, false), MaxExpiry: 1,
			SplitPort: base, MergePort: base + 1,
		}, -1); err != nil {
			return nil, err
		}
	}
	u4 := sw4.Pipe(0).Resources()

	// 8 NF servers: two programs per pipe, ~20% each (40% reserved).
	sw8 := core.NewSwitch("table1-8srv")
	for pipe := 0; pipe < 4; pipe++ {
		for j := 0; j < 2; j++ {
			base := rmt.PortID(core.PortsPerPipe*pipe + 8*j)
			if _, err := sw8.AttachPayloadPark(core.Config{
				Slots: SlotsForSRAMPct(0.20, false), MaxExpiry: 1,
				SplitPort: base, MergePort: base + 1,
			}, -1); err != nil {
				return nil, err
			}
		}
	}
	u8 := sw8.Pipe(0).Resources()

	return &Table1Result{
		SRAM4AvgPct: u4.SRAMAvgPct, SRAM4PeakPct: u4.SRAMPeakPct,
		SRAM8AvgPct: u8.SRAMAvgPct, SRAM8PeakPct: u8.SRAMPeakPct,
		TCAMPct: u4.TCAMPct, VLIWPct: u4.VLIWPct,
		ExactXbarPct: u4.ExactXbarPct, TernXbarPct: u4.TernXbarPct,
		PHVPct: u4.PHVPct,
	}, nil
}

func renderTable1(res *Table1Result, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "resource\tmeasured\tpaper")
	fmt.Fprintf(tw, "SRAM (4 NF servers)\t%.2f%% avg / %.2f%% peak\t25.94%% avg / 33.75%% peak\n", res.SRAM4AvgPct, res.SRAM4PeakPct)
	fmt.Fprintf(tw, "SRAM (8 NF servers)\t%.2f%% avg / %.2f%% peak\t38.23%% avg / 48.75%% peak\n", res.SRAM8AvgPct, res.SRAM8PeakPct)
	fmt.Fprintf(tw, "TCAM\t%.2f%%\t0.69%%\n", res.TCAMPct)
	fmt.Fprintf(tw, "VLIW\t%.2f%%\t14.58%%\n", res.VLIWPct)
	fmt.Fprintf(tw, "Exact match crossbar\t%.2f%%\t16.47%%\n", res.ExactXbarPct)
	fmt.Fprintf(tw, "Ternary match crossbar\t%.2f%%\t0.88%%\n", res.TernXbarPct)
	fmt.Fprintf(tw, "Packet header vector\t%.2f%%\t37.65%%\n", res.PHVPct)
	return tw.Flush()
}

// --- equiv: §6.2.6 functional equivalence ---

// EquivResult is the structured equivalence-check output.
type EquivResult struct {
	Packets   int    `json:"packets"`
	Identical bool   `json:"identical"`
	Premature uint64 `json:"premature"`
}

func collectEquiv(o Options) (*EquivResult, error) {
	n := 5000
	if o.Quick {
		n = 1000
	}
	capture := func(pp *core.Config) ([]pcap.Record, *core.Program, error) {
		srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})})
		tb, err := sim.NewInProcess(pp, srv)
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

	baseRecs, _, err := capture(nil)
	if err != nil {
		return nil, err
	}
	ppRecs, progPP, err := capture(&core.Config{Slots: MacroSlots, MaxExpiry: 1})
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
	return &EquivResult{
		Packets:   len(ra),
		Identical: pcap.Equal(ra, rb),
		Premature: progPP.C.PrematureEvictions.Value(),
	}, nil
}

func renderEquiv(res *EquivResult, w io.Writer) error {
	fmt.Fprintf(w, "packets=%d captures identical=%t premature evictions=%d\n",
		res.Packets, res.Identical, res.Premature)
	if !res.Identical {
		return fmt.Errorf("harness: functional equivalence violated")
	}
	return nil
}
