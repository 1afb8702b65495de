package harness

import (
	"fmt"
	"strings"

	"github.com/payloadpark/payloadpark/internal/scenario"
	"github.com/payloadpark/payloadpark/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "policies",
		Title:   "Programmable policies: payload parking vs ROHC-style header compression vs both, 40GbE",
		Paper:   "declarative table programs (§5 generalized): parking slims the NF link by the parked payload, compression by 21 B/packet; combined they stack on one pipe",
		Collect: collectPolicies,
	})
}

// policyNames are the four policy assignments compared, in display order.
var policyNames = []string{"baseline", "park", "compress", "park+compress"}

// withPolicy applies a named policy to a scenario. The NF chain stays the
// default MAC-swap (compression restores L3/L4 from switch state, so the
// chain must not rewrite headers).
func withPolicy(s scenario.Scenario, policy string) scenario.Scenario {
	if strings.Contains(policy, "park") {
		s.Parking.Mode = sim.ParkEdge
	}
	if strings.Contains(policy, "compress") {
		s.Program = scenario.Program{Kind: "compress"}
	}
	return s
}

func policySizes(o Options) []int {
	if o.Quick {
		return []int{512}
	}
	return []int{256, 512, 1024}
}

// policySends: 16 Gbps keeps every variant healthy so per-packet byte
// savings show; 34 Gbps overloads the small sizes so goodput separates.
var policySends = []float64{16, 34}

// policyTestbedName names one (policy, size, send) testbed cell's run.
func policyTestbedName(policy string, size int, sendGbps float64) string {
	return fmt.Sprintf("policies-%s-%dB-%gG", policy, size, sendGbps)
}

func sumCompressions(r *scenario.Report) uint64 {
	var n uint64
	for _, pc := range r.Programs {
		n += pc.Counters["compressions"]
	}
	return n
}

// spineGbits is the traffic a fabric run put on its leaf->spine hops.
func spineGbits(r *scenario.Report) float64 {
	var gbits float64
	for _, l := range r.Fabric.Links {
		if strings.Contains(l.Name, "->spine") {
			gbits += float64(l.TxBits) / 1e9
		}
	}
	return gbits
}

func collectPolicies(o Options) (*Result, error) {
	res := &Result{}
	sizes, np := policySizes(o), len(policyNames)
	cells := make([]*scenario.Report, len(sizes)*len(policySends)*np)
	if err := scenario.Each(o.ctx(), len(cells), func(i int) (err error) {
		size, send := sizes[i/(len(policySends)*np)], policySends[i/np%len(policySends)]
		s := fixedScenario(o, policyTestbedName(policyNames[i%np], size, send), size, nil)
		s.Traffic.SendBps = send * 1e9
		cells[i], err = res.run(o, withPolicy(s, policyNames[i%np]))
		return err
	}); err != nil {
		return nil, err
	}
	t := res.table("", "size(B)\tsend(Gbps)\tpolicy\tgput(Gbps)\tlat(us)\tto-NF(Gbps)\thealthy\tsplits\tcompressions")
	for i, r := range cells {
		t.row("%d\t%.0f\t%s\t%.3f\t%.1f\t%.3f\t%t\t%d\t%d",
			sizes[i/(len(policySends)*np)], policySends[i/np%len(policySends)], policyNames[i%np],
			r.GoodputGbps, r.AvgLatencyUs, r.Testbed.ToNFGbps, r.Healthy, r.Testbed.Splits, sumCompressions(r))
	}

	// The same four policies fabric-wide: a 4x2 leaf-spine with the
	// datacenter mix, policies installed at the ingress leaves.
	fabric := make([]*scenario.Report, np)
	if err := scenario.Each(o.ctx(), np, func(i int) (err error) {
		fabric[i], err = res.run(o, withPolicy(scenario.Scenario{
			Name:     "policies-fabric-" + policyNames[i],
			Topology: scenario.LeafSpine{Leaves: 4, Spines: 2},
			Parking:  scenario.Parking{Slots: MacroSlots, MaxExpiry: 2},
			Traffic:  scenario.Traffic{SendBps: 8e9},
			Opts:     o.opts(),
		}, policyNames[i]))
		return err
	}); err != nil {
		return nil, err
	}
	t = res.table("leaf-spine 4x2, datacenter mix, 8 Gbps/leaf:",
		"policy\tgput(Gbps)\tlat(us)\tspine traffic(Gbit)\thealthy\tsplits\tcompressions")
	for i, r := range fabric {
		var splits uint64
		for _, sw := range r.Fabric.Switches {
			splits += sw.Splits
		}
		t.row("%s\t%.3f\t%.1f\t%.3f\t%t\t%d\t%d",
			policyNames[i], r.GoodputGbps, r.AvgLatencyUs, spineGbits(r), r.Healthy, splits, sumCompressions(r))
	}
	return res, nil
}
