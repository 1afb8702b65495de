package harness

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func init() {
	register(Experiment{
		ID:      "fig8",
		Title:   "Peak goodput vs fixed packet size for FW, NAT and FW->NAT on OpenNetVM, 40GbE",
		Paper:   "+10-36% goodput for 384-1492 B packets; negligible gain at 256 B; chains gain less than single NFs",
		Collect: collectFig8,
	})
	register(Experiment{
		ID:      "fig9",
		Title:   "PCIe bandwidth utilization vs fixed packet size (lower is better)",
		Paper:   "PayloadPark saves 2-58% of PCIe bandwidth; the largest saving is at 256 B packets",
		Collect: collectFig9,
	})
	register(Experiment{
		ID:      "s621",
		Title:   "FW->NAT on OpenNetVM, 40GbE, datacenter traffic (§6.2.1)",
		Paper:   "15.6% goodput improvement, no latency penalty, ~12% PCIe bandwidth savings at all send rates",
		Collect: collectS621,
	})
	register(Experiment{
		ID:      "fig15",
		Title:   "Peak goodput for NF-Light/Medium/Heavy across packet sizes",
		Paper:   "gains persist at 1492 B for all NFs; no gain for NF-Heavy at <=1024 B (compute bound ~5 Mpps); NF-Medium loses 3.9% at 256 B to premature evictions",
		Collect: collectFig15,
	})
}

// fixedScenario is the 40GbE OpenNetVM testbed calibration every testbed
// experiment on that server starts from (size 0: the datacenter mix; a
// nil chain: the MAC swap); an experiment overrides only what it varies.
func fixedScenario(o Options, name string, size int, chain func() *nf.Chain) scenario.Scenario {
	var dist trafficgen.SizeDist = trafficgen.Datacenter{}
	if size > 0 {
		dist = trafficgen.Fixed(size)
	}
	return scenario.Scenario{
		Name:     name,
		Topology: scenario.Testbed{LinkBps: 40e9},
		Parking:  scenario.Parking{Slots: MacroSlots, MaxExpiry: 1},
		Traffic:  scenario.Traffic{Dist: dist},
		Chain:    chain,
		Server:   OpenNetVM40G(),
		Opts:     o.opts(),
	}
}

func fig8Sizes(o Options) []int {
	if o.Quick {
		return []int{256, 384, 1492}
	}
	return []int{256, 384, 512, 1024, 1492}
}

// peakCells searches the peak healthy send for both arms of every
// (workload, size) cell; cell w*len(sizes)+s holds workload w at size s.
// Cells are independent, so they run across a worker pool (each cell's
// binary search stays sequential — every probe depends on the previous
// verdict); cell order is deterministic regardless of worker interleaving.
func (r *Result) peakCells(o Options, name string, names []string, chains []func() *nf.Chain, sizes []int) ([][2]*scenario.Report, error) {
	peak := make([][2]*scenario.Report, len(names)*len(sizes))
	return peak, scenario.Each(o.ctx(), len(peak), func(i int) (err error) {
		w, size := i/len(sizes), sizes[i%len(sizes)]
		base := fixedScenario(o, fmt.Sprintf("%s-%s-%dB", name, names[w], size), size, chains[w])
		_, peak[i], err = r.peaks(o, base, 2e9, 60e9, 60e9)
		return err
	})
}

func collectFig8(o Options) (*Result, error) {
	res := &Result{}
	names, sizes := []string{"FW", "NAT", "FW->NAT"}, fig8Sizes(o)
	peak, err := res.peakCells(o, "fig8", names, []func() *nf.Chain{ChainFW1, ChainNAT, ChainFWNAT}, sizes)
	if err != nil {
		return nil, err
	}
	t := res.table("", "chain\tsize(B)\tbase peak gput(Gbps)\tpp peak gput(Gbps)\tgain")
	for i, pk := range peak {
		b, p := pk[0].GoodputGbps, pk[1].GoodputGbps
		t.row("%s\t%d\t%.3f\t%.3f\t%s", names[i/len(sizes)], sizes[i%len(sizes)], b, p, pct(p, b))
	}
	return res, nil
}

func collectFig15(o Options) (*Result, error) {
	res := &Result{}
	names, sizes := []string{"NF-Light", "NF-Medium", "NF-Heavy"}, []int{256, 512, 1024, 1492}
	if o.Quick {
		sizes = []int{256, 1492}
	}
	peak, err := res.peakCells(o, "fig15", names, []func() *nf.Chain{
		ChainSynthetic(names[0], 50), ChainSynthetic(names[1], 300), ChainSynthetic(names[2], 570),
	}, sizes)
	if err != nil {
		return nil, err
	}
	t := res.table("", "nf\tsize(B)\tbase peak gput(Gbps)\tpp peak gput(Gbps)\tgain\tpp premature")
	for i, pk := range peak {
		b, p := pk[0].GoodputGbps, pk[1].GoodputGbps
		t.row("%s\t%d\t%.3f\t%.3f\t%s\t%d", names[i/len(sizes)], sizes[i%len(sizes)], b, p, pct(p, b), pk[1].Premature)
	}
	return res, nil
}

// --- fig9: PCIe vs packet size ---

func collectFig9(o Options) (*Result, error) {
	// Compare at a common send rate that keeps both deployments healthy
	// so pps is identical and the per-packet byte ratio shows.
	res := &Result{}
	grid, err := res.sweep(o, scenario.Sweep{
		Base: fixedScenario(o, "fig9", 256, ChainFWNAT).With(func(s *scenario.Scenario) {
			s.Traffic.SendBps = 16e9
		}),
		Axes: []scenario.Axis{
			scenario.PacketSizeAxis(fig8Sizes(o)...),
			scenario.ParkingAxis(parkArms[:]...),
		},
	})
	if err != nil {
		return nil, err
	}
	t := res.table("", "size(B)\tbase pcie(Gbps)\tpp pcie(Gbps)\tbase util%\tpp util%\tsavings")
	for i, size := range fig8Sizes(o) {
		b, p := grid.At(i, 0).Report.Testbed, grid.At(i, 1).Report.Testbed
		t.row("%d\t%.2f\t%.2f\t%.1f\t%.1f\t%.1f%%",
			size, b.PCIeGbps, p.PCIeGbps, b.PCIeUtilPct, p.PCIeUtilPct, savingsPct(b.PCIeGbps, p.PCIeGbps))
	}
	return res, nil
}

// --- s621 ---

func collectS621(o Options) (*Result, error) {
	res := &Result{}
	base := fixedScenario(o, "s621", 0, ChainFWNAT)
	_, peak, err := res.peaks(o, base, 10e9, 45e9, 45e9)
	if err != nil {
		return nil, err
	}
	// PCIe savings at a fixed sub-saturation send rate.
	gbps, err := res.pcie(o, base, 15e9)
	if err != nil {
		return nil, err
	}
	t := res.table("", "")
	t.note("peak goodput: baseline=%.3f Gbps pp=%.3f Gbps gain=%s (paper: +15.6%%)",
		peak[0].GoodputGbps, peak[1].GoodputGbps, pct(peak[1].GoodputGbps, peak[0].GoodputGbps))
	t.note("latency at peak: baseline=%.1fus pp=%.1fus", peak[0].AvgLatencyUs, peak[1].AvgLatencyUs)
	t.note("pcie at 15G send: baseline=%.2f Gbps pp=%.2f Gbps savings=%.1f%% (paper: ~12%%)",
		gbps[0], gbps[1], savingsPct(gbps[0], gbps[1]))
	return res, nil
}
