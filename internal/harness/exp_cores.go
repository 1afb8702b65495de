package harness

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "cores",
		Title:   "Per-server saturation and stall/eviction onset vs NF-server core count (RSS sharding)",
		Paper:   "not a paper figure: the paper's NF servers are 8-core Xeons (§6.1); this sweep shows saturation emerging from per-core RX queues, and how the Fig. 14 eviction onset moves with core count",
		Collect: collectCores,
	})
}

// collectCores measures how an NF server scales with its core count
// under the RSS-sharded server model, in two parts:
//
//  1. Saturation: the peak healthy delivered packet rate (the knee before
//     RX drops exceed the 0.1% criterion) for the §6.2.3 MAC-swap
//     workload, baseline and PayloadPark, on a 40 GbE link so the server
//     — not the wire — is the binding resource across the whole sweep.
//  2. Stall/eviction onset: the Fig. 14-class experiment (periodic
//     receive-path stalls, EXP=1, ~26% SRAM reserved) with the aggregate
//     RX budget split per core, showing how many cores it takes to drain
//     stall excursions before parked payloads are prematurely evicted.
func collectCores(o Options) (*Result, error) {
	counts := []int{1, 2, 4, 8}
	if o.Quick {
		counts = []int{1, 2}
	}
	res := &Result{}

	// The per-count knee searches are independent; run them across the
	// worker pool, then derive the scaling ratios (which reference the
	// first count's knees) sequentially.
	knee := make([][2]*scenario.Report, len(counts))
	if err := scenario.Each(o.ctx(), len(counts), func(i int) (err error) {
		server := MultiServer10G()
		server.Cores = counts[i]
		base := fixedScenario(o, fmt.Sprintf("cores-sat-%d", counts[i]), 384, nil).With(func(s *scenario.Scenario) {
			s.Parking.Slots = SlotsForSRAMPct(0.20, false)
			s.Traffic.Flows = sim.MultiServerFlows
			s.Server = server
		})
		_, knee[i], err = res.peaks(o, base, 0.3e9, 40e9, 40e9)
		return err
	}); err != nil {
		return nil, err
	}
	t := res.table("saturation knee vs cores (MAC swap, 384 B, MultiServer10G per-core costs, 40GbE):",
		"cores\tbase knee(Mpps)\tpp knee(Mpps)\tbase scaling\tpp scaling\tpp peak rx-q\tpp rss skew")
	ref := knee[0]
	for i, k := range knee {
		b, p := k[0].Testbed, k[1].Testbed
		t.row("%d\t%.2f\t%.2f\t%.1fx\t%.1fx\t%d\t%s", counts[i], b.ToNFMpps, p.ToNFMpps,
			b.ToNFMpps/ref[0].Testbed.ToNFMpps, p.ToNFMpps/ref[1].Testbed.ToNFMpps,
			maxPeakQueue(p.PerCore), rssSkew(p.PerCore))
	}
	// Per-core breakdown at the largest count: RSS spread, drop
	// attribution, and peak backlog.
	last := knee[len(knee)-1][1].Testbed.PerCore
	t = res.table(fmt.Sprintf("per-core detail at %d cores (payloadpark knee run):", len(last)),
		"core\tserved\trx-drops\tstage-drops\tpeak rx-q")
	for i, c := range last {
		t.row("%d\t%d\t%d\t%d\t%d", i, c.Served, c.RxDrops, c.StageDrops, c.PeakQueue)
	}

	// Part 2: the Fig. 14-class stall/eviction experiment, per-core-aware.
	// MemorySweepServer's RX budget was calibrated as a single receive
	// path; splitting it over the sweep's cores (×8 per-core cost) keeps
	// the 8-core aggregate on the old calibration while letting fewer
	// cores genuinely drain slower during a stall-and-drain excursion.
	slots := SlotsForSRAMPct(0.2594, false)
	send := make([]float64, len(counts))
	onset := make([]*scenario.Report, len(counts))
	if err := scenario.Each(o.ctx(), len(counts), func(i int) (err error) {
		server := MemorySweepServer()
		server.Cores = counts[i]
		server.RxFixedNs *= 8
		server.RxPerByteNs *= 8
		base := evictionScenario(o, fmt.Sprintf("cores-evict-%d", counts[i]), slots, server)
		base.Traffic.Flows = sim.MultiServerFlows
		send[i], onset[i], err = peakHealthySend(o, atSend(base), 1e9, 40e9, o.iters(), noPrematureEvictions)
		return err
	}); err != nil {
		return nil, err
	}
	t = res.table(fmt.Sprintf("stall/eviction onset vs cores (Fig. 14 class: %d slots ~26%% SRAM, EXP=1, 25ms/4ms stalls):", slots),
		"cores\tpeak no-eviction send(Gbps)\tpeak goodput(Gbps)\tpeak rx-q")
	for i, rep := range onset {
		res.record(rep)
		t.row("%d\t%.1f\t%.3f\t%d", counts[i], send[i]/1e9, rep.GoodputGbps, maxPeakQueue(rep.Testbed.PerCore))
	}
	return res, nil
}

// maxPeakQueue returns the deepest per-core RX backlog of a run.
func maxPeakQueue(cs []sim.CoreStat) int {
	m := 0
	for _, c := range cs {
		if c.PeakQueue > m {
			m = c.PeakQueue
		}
	}
	return m
}

// rssSkew renders the RSS load imbalance: the busiest core's served
// share relative to a perfect spread.
func rssSkew(cs []sim.CoreStat) string {
	if len(cs) == 0 {
		return "n/a"
	}
	var total, max uint64
	for _, c := range cs {
		total += c.Served
		if c.Served > max {
			max = c.Served
		}
	}
	if total == 0 {
		return "n/a"
	}
	mean := float64(total) / float64(len(cs))
	return fmt.Sprintf("%+.1f%%", 100*(float64(max)/mean-1))
}
