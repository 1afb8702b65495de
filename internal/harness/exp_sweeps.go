package harness

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func init() {
	register(Experiment{
		ID:      "fig6",
		Title:   "Packet size distribution for the enterprise datacenter workload",
		Paper:   "bimodal CDF, average packet size 882 B, 30% of packets below the 160 B payload threshold",
		Collect: collectFig6,
	})
	register(Experiment{
		ID:      "fig7",
		Title:   "Goodput and latency vs send rate, FW->NAT->LB on NetBricks, 10GbE, datacenter traffic",
		Paper:   "PayloadPark +13% goodput at peak, no latency penalty; baseline hits its latency cliff at 10G",
		Collect: collectFig7,
	})
	register(Experiment{
		ID:      "fig13",
		Title:   "Fig. 7 with packet recirculation (384 B parked)",
		Paper:   "+28% goodput (about twice the gain without recirculation), no end-to-end latency penalty, 23% PCIe savings",
		Collect: collectFig13,
	})
	register(Experiment{
		ID:      "fig16",
		Title:   "Goodput and latency vs send rate, 512 B packets, FW->NAT on OpenNetVM, 40GbE",
		Paper:   "baseline capped at 33.6 Gbps send; PayloadPark keeps processing beyond it; latency rises for both past saturation",
		Collect: collectFig16,
	})
}

// --- fig6: the traffic model itself ---

func collectFig6(o Options) (*Result, error) {
	gen := trafficgen.New(trafficgen.Config{
		Sizes: trafficgen.Datacenter{}, Flows: 1024,
		SrcMAC: sim.MACGen, DstMAC: sim.MACNF,
		DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80, Seed: o.Seed,
	})
	n := 200000
	if o.Quick {
		n = 40000
	}
	small, cdf := 0, stats.NewCDF()
	for i := 0; i < n; i++ {
		p := gen.Next()
		cdf.Observe(float64(p.Len()))
		if len(p.Payload) < core.BaseParkBytes {
			small++
		}
	}
	res := &Result{}
	t := res.table(fmt.Sprintf("samples=%d mean=%.1fB (paper: 882B) sub-160B-payload=%.1f%% (paper: 30%%)",
		n, cdf.Mean(), 100*float64(small)/float64(n)),
		"CDF (packet size -> cumulative fraction):")
	for _, x := range []float64{64, 128, 201, 256, 425, 512, 1024, 1300, 1400, 1463, 1500} {
		t.row("  %4.0f\t%.3f", x, cdf.At(x))
	}
	return res, nil
}

// --- fig7/13/16: rate sweeps as declarative grids ---

// sweepScenario is the Fig. 7/13 base scenario: the grid axes set the
// send rate and the parking mode on top of it.
func sweepScenario(o Options, name string, recirc bool) scenario.Scenario {
	slots := MacroSlots
	if recirc {
		slots = MacroSlotsRecirc
	}
	return scenario.Scenario{
		Name:     name,
		Topology: scenario.Testbed{},
		Parking:  scenario.Parking{Slots: slots, MaxExpiry: 1, Recirculate: recirc},
		Traffic:  scenario.Traffic{Dist: trafficgen.Datacenter{}},
		Chain:    ChainFWNATLB,
		Server:   NetBricks10G(),
		Opts:     o.opts(),
	}
}

// rateGrid runs base over the rate × {baseline, parked} grid and prints
// it as the result's first table.
func (r *Result) rateGrid(o Options, base scenario.Scenario, rates []float64) (*Table, error) {
	grid, err := r.sweep(o, scenario.Sweep{
		Base: base,
		Axes: []scenario.Axis{
			scenario.SendGbpsAxis(rates...),
			scenario.ParkingAxis(parkArms[:]...),
		},
	})
	if err != nil {
		return nil, err
	}
	t := r.table("", "send(Gbps)\tbase gput(Gbps)\tpp gput(Gbps)\tbase lat(us)\tpp lat(us)\tbase drop%\tpp drop%")
	for i := range rates {
		b, p := grid.At(i, 0).Report, grid.At(i, 1).Report
		t.row("%s\t%.3f\t%.3f\t%.1f\t%.1f\t%.3f\t%.3f", grid.At(i, 0).Labels[0],
			b.GoodputGbps, p.GoodputGbps, b.AvgLatencyUs, p.AvgLatencyUs,
			100*b.UnintendedDropRate, 100*p.UnintendedDropRate)
	}
	return t, nil
}

// goodputSweep is the Fig. 7/13 shape: the rate grid, the gain in peak
// healthy goodput (searched between 8 Gbps and hiBps), and the PCIe
// comparison at the search floor.
func goodputSweep(o Options, base scenario.Scenario, rates []float64, hiBps float64) (*Result, error) {
	res := &Result{}
	t, err := res.rateGrid(o, base, rates)
	if err != nil {
		return nil, err
	}
	_, peak, err := res.peaks(o, base, 8e9, hiBps, hiBps)
	if err != nil {
		return nil, err
	}
	t.note("peak healthy goodput: baseline=%.3f Gbps, payloadpark=%.3f Gbps, gain=%s",
		peak[0].GoodputGbps, peak[1].GoodputGbps, pct(peak[1].GoodputGbps, peak[0].GoodputGbps))
	gbps, err := res.pcie(o, base, 8e9)
	if err != nil {
		return nil, err
	}
	t.note("pcie at 8G send: baseline=%.2f Gbps, payloadpark=%.2f Gbps (savings %.1f%%)",
		gbps[0], gbps[1], savingsPct(gbps[0], gbps[1]))
	return res, nil
}

func collectFig7(o Options) (*Result, error) {
	rates := []float64{2, 4, 6, 8, 9, 10, 11, 12}
	if o.Quick {
		rates = []float64{4, 9, 10.5, 12}
	}
	return goodputSweep(o, sweepScenario(o, "fig7", false), rates, 16e9)
}

func collectFig13(o Options) (*Result, error) {
	rates := []float64{2, 4, 6, 8, 10, 11, 12, 13, 14}
	if o.Quick {
		rates = []float64{4, 10, 12, 14}
	}
	return goodputSweep(o, sweepScenario(o, "fig13", true), rates, 18e9)
}

func collectFig16(o Options) (*Result, error) {
	base := fixedScenario(o, "fig16", 512, ChainFWNAT)
	rates := []float64{5, 10, 15, 20, 25, 30, 33, 36, 40, 45, 50}
	if o.Quick {
		rates = []float64{10, 30, 34, 40, 48}
	}
	res := &Result{}
	t, err := res.rateGrid(o, base, rates)
	if err != nil {
		return nil, err
	}
	// The PP peak search explores beyond the baseline ceiling (60G vs 50G).
	send, _, err := res.peaks(o, base, 20e9, 50e9, 60e9)
	if err != nil {
		return nil, err
	}
	t.note("peak healthy send: baseline=%.1f Gbps (paper: 33.6), payloadpark=%.1f Gbps (beyond baseline cap)",
		send[0]/1e9, send[1]/1e9)
	return res, nil
}
