package payloadpark_test

// The examples below are the repo's tour of the paper's results, one per
// feature. `go test -run '^Example' .` runs them all and checks each one's
// printed output against its Output block, so the numbers in them are the
// numbers the code produces.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	payloadpark "github.com/payloadpark/payloadpark"
)

// Park one packet's payload in the switch, process the header through an
// NF, and get the byte-identical packet back — then run the same
// deployment as a timed scenario through the unified Run entrypoint.
func Example() {
	// A PayloadPark deployment: RMT switch with the Split/Merge program
	// installed, in front of a MAC-swapping NF (the paper's functional-
	// equivalence NF, §6.2.6).
	dep, err := payloadpark.New(payloadpark.DeploymentConfig{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}

	flow := payloadpark.FiveTuple{
		SrcIP: payloadpark.IPv4Addr{10, 0, 0, 1}, DstIP: payloadpark.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: 17,
	}
	pkt := payloadpark.NewUDPPacket(flow, 882, 1) // the workload's average size
	original := pkt.Clone()

	fmt.Printf("in : %d bytes on the wire (%d payload)\n", pkt.Len(), len(pkt.Payload))

	out := dep.Process(pkt)
	if out == nil {
		log.Fatal("packet dropped")
	}

	fmt.Printf("out: %d bytes, payload intact: %t\n",
		out.Len(), bytes.Equal(out.Payload, original.Payload))

	c := dep.Counters()
	fmt.Printf("switch: splits=%d merges=%d premature-evictions=%d\n",
		c.Splits.Value(), c.Merges.Value(), c.PrematureEvictions.Value())
	fmt.Printf("while parked, only %d bytes crossed the switch->NF link instead of %d\n",
		original.Len()-payloadpark.ParkBytes+7, original.Len())

	r := dep.Resources()
	fmt.Printf("switch resources: SRAM %.2f%% avg, PHV %.1f%%, VLIW %.1f%%\n",
		r.SRAMAvgPct, r.PHVPct, r.VLIWPct)

	// The same deployment as a timed measurement: one Scenario, one Run.
	// A Scenario composes a topology (here the paper's Fig. 5 testbed), a
	// parking policy, traffic, and run options; the Report carries the
	// paper's metrics for any topology.
	rep, err := payloadpark.Run(context.Background(), payloadpark.Scenario{
		Name:     "quickstart",
		Topology: payloadpark.TestbedTopology{},
		Parking:  payloadpark.ParkingPolicy{Mode: payloadpark.ParkEdgeMode, Slots: 1024},
		Traffic:  payloadpark.Traffic{SendBps: 8e9, Dist: payloadpark.Datacenter()},
		Opts:     payloadpark.RunOptions{Seed: 1, Quick: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated 8 Gbps for %s: goodput=%.3f Gbps, avg latency=%.1fus, healthy=%t\n",
		rep.Scenario, rep.GoodputGbps, rep.AvgLatencyUs, rep.Healthy)
	fmt.Printf("splits=%d merges=%d on the simulated switch\n",
		rep.Testbed.Splits, rep.Testbed.Merges)

	// Output:
	// in : 882 bytes on the wire (840 payload)
	// out: 882 bytes, payload intact: true
	// switch: splits=1 merges=1 premature-evictions=0
	// while parked, only 729 bytes crossed the switch->NF link instead of 882
	// switch resources: SRAM 1.09% avg, PHV 41.5%, VLIW 13.0%
	//
	// simulated 8 Gbps for quickstart: goodput=0.385 Gbps, avg latency=5.5us, healthy=true
	// splits=7210 merges=7214 on the simulated switch
}

// Explicit drops (§6.2.4): when the NF framework is taught about
// PayloadPark (a ~50-line change in OpenNetVM), dropped packets generate
// notifications that reclaim parked payloads immediately instead of
// waiting for the expiry countdown.
func ExampleDeploymentConfig_explicitDrop() {
	run := func(explicit bool) {
		// A firewall blacklisting 10.0.0.0/9: roughly half the flows
		// drop at the NF server.
		chain := payloadpark.NewChain(payloadpark.NewFirewall([]payloadpark.FirewallRule{
			{Prefix: payloadpark.IPv4Addr{10, 0, 0, 0}, Bits: 9},
		}))
		dep, err := payloadpark.New(payloadpark.DeploymentConfig{
			Slots: 64, Chain: chain, ExplicitDrop: explicit, MaxExpiry: 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		delivered := 0
		for i := 0; i < 200; i++ {
			flow := payloadpark.FiveTuple{
				SrcIP:   payloadpark.IPv4Addr{10, byte(i), 0, 1},
				DstIP:   payloadpark.IPv4Addr{10, 1, 0, 9},
				SrcPort: uint16(5000 + i), DstPort: 80, Protocol: 17,
			}
			if out := dep.Process(payloadpark.NewUDPPacket(flow, 500, uint16(i))); out != nil {
				delivered++
			}
		}
		c := dep.Counters()
		fmt.Printf("explicit-drop=%-5t delivered=%3d splits=%3d merges=%3d explicitDrops=%3d occupied-skips=%3d occupied-now=%2d\n",
			explicit, delivered, c.Splits.Value(), c.Merges.Value(),
			c.ExplicitDrops.Value(), c.OccupiedSkips.Value(), dep.Occupancy())
	}

	fmt.Println("firewall drops ~half the flows; table has only 64 slots, EXP=10 (conservative)")
	fmt.Println()
	run(false)
	run(true)
	fmt.Println()
	fmt.Println("without explicit drops, dropped packets' payloads sit in the table until the")
	fmt.Println("conservative expiry evicts them — later packets find slots occupied (skips)")
	fmt.Println("and ride whole; with notifications the slots free instantly.")

	// Output:
	// firewall drops ~half the flows; table has only 64 slots, EXP=10 (conservative)
	//
	// explicit-drop=false delivered= 72 splits= 64 merges=  0 explicitDrops=  0 occupied-skips=136 occupied-now=64
	// explicit-drop=true  delivered= 72 splits=200 merges= 72 explicitDrops=128 occupied-skips=  0 occupied-now= 0
	//
	// without explicit drops, dropped packets' payloads sit in the table until the
	// conservative expiry evicts them — later packets find slots occupied (skips)
	// and ride whole; with notifications the slots free instantly.
}

// Recirculation (§6.2.5): a second pass through another pipe raises the
// parked bytes from 160 to 384 per packet, roughly doubling the goodput
// gain on large-packet traffic.
func ExampleDeploymentConfig_recirculate() {
	plain, err := payloadpark.New(payloadpark.DeploymentConfig{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	recirc, err := payloadpark.New(payloadpark.DeploymentConfig{Slots: 1024, Recirculate: true})
	if err != nil {
		log.Fatal(err)
	}

	flow := payloadpark.FiveTuple{
		SrcIP: payloadpark.IPv4Addr{10, 0, 0, 1}, DstIP: payloadpark.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: 17,
	}

	fmt.Printf("parked bytes: normal=%d recirculated=%d\n\n",
		payloadpark.ParkBytes, payloadpark.ParkBytesRecirculated)
	fmt.Println("size(B)  on-wire normal  on-wire recirc  intact")

	for _, size := range []int{300, 500, 882, 1200, 1492} {
		a := payloadpark.NewUDPPacket(flow, size, 1)
		b := a.Clone()
		orig := a.Clone()

		// Process completes the round trip, so the on-wire size of the
		// split packet is inferred from the parking rules.
		wireNormal := size - payloadpark.ParkBytes + 7
		if size-42 < payloadpark.ParkBytes {
			wireNormal = size + 7 // too small to park: header added, ENB=0
		}
		wireRecirc := size - payloadpark.ParkBytesRecirculated + 7
		if size-42 < payloadpark.ParkBytesRecirculated {
			wireRecirc = size + 7
		}

		outA := plain.Process(a)
		outB := recirc.Process(b)
		intact := outA != nil && outB != nil &&
			bytes.Equal(outA.Payload, orig.Payload) &&
			bytes.Equal(outB.Payload, orig.Payload)

		fmt.Printf("%6d   %8d        %8d        %t\n", size, wireNormal, wireRecirc, intact)
	}

	fmt.Println("\nwith recirculation the minimum payload threshold rises to 384B (§6.3.3),")
	fmt.Println("so mid-sized packets ride whole — but large packets shrink much further.")

	// Output:
	// parked bytes: normal=160 recirculated=384
	//
	// size(B)  on-wire normal  on-wire recirc  intact
	//    300        147             307        true
	//    500        347             123        true
	//    882        729             505        true
	//   1200       1047             823        true
	//   1492       1339            1115        true
	//
	// with recirculation the minimum payload threshold rises to 384B (§6.3.3),
	// so mid-sized packets ride whole — but large packets shrink much further.
}

// Slim DPI (§7, "Decoupling boundary"): a classifier that inspects only
// the first bytes of each payload keeps working on split packets when the
// decoupling boundary is moved past its inspection window — the
// variable-boundary extension the paper sketches.
func ExampleDeploymentConfig_boundaryOffset() {
	signature := []byte{0xde, 0xad, 0xbe, 0xef}

	// Boundary 64: the DPI's 48-byte window is fully visible to the NF
	// even while 160 bytes behind it are parked in the switch.
	dpi := payloadpark.NewSlimDPI(48, [][]byte{signature})
	dep, err := payloadpark.New(payloadpark.DeploymentConfig{
		Slots:          1024,
		BoundaryOffset: 64,
		Chain:          payloadpark.NewChain(dpi),
	})
	if err != nil {
		log.Fatal(err)
	}

	flow := payloadpark.FiveTuple{
		SrcIP: payloadpark.IPv4Addr{10, 0, 0, 1}, DstIP: payloadpark.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: 17,
	}
	delivered, blocked := 0, 0
	for i := 0; i < 1000; i++ {
		pkt := payloadpark.NewUDPPacket(flow, 700, uint16(i))
		if i%10 == 0 {
			copy(pkt.Payload[20:], signature) // malicious prefix
		}
		if out := dep.Process(pkt); out != nil {
			delivered++
		} else {
			blocked++
		}
	}

	c := dep.Counters()
	fmt.Printf("boundary offset: 64 B visible, %d B parked per packet\n", payloadpark.ParkBytes)
	fmt.Printf("delivered=%d blocked=%d (DPI matched %d signatures)\n", delivered, blocked, dpi.Matched())
	fmt.Printf("splits=%d merges=%d premature=%d\n",
		c.Splits.Value(), c.Merges.Value(), c.PrematureEvictions.Value())
	fmt.Println()
	fmt.Println("the classifier saw every signature although 160 bytes of each payload")
	fmt.Println("never left the switch — the decoupling boundary kept its window visible.")

	// Output:
	// boundary offset: 64 B visible, 160 B parked per packet
	// delivered=900 blocked=100 (DPI matched 100 signatures)
	// splits=1000 merges=900 premature=0
	//
	// the classifier saw every signature although 160 bytes of each payload
	// never left the switch — the decoupling boundary kept its window visible.
}

// Switch behaviour as data, not code: table-program specs — parser
// geometry, match-action tables and register layouts — serialize to JSON
// and compile against the same RMT stage/SRAM budgets as the paper's
// pipeline. This example builds the ROHC-style header-compression policy,
// checks that examples/policies/compress-spec.json is exactly its JSON
// form, loads the file the way `ppbench -program` does, and runs it on the
// canonical testbed next to a baseline — a new policy deployed with no Go
// code behind it.
func ExampleHeaderCompressProgramSpec() {
	// The built-in compression spec: park IPv4+UDP headers (21 B/packet)
	// in a switch context table across the NF round trip.
	spec := payloadpark.HeaderCompressProgramSpec(payloadpark.CompressSpecParams{Slots: 4096})

	// Policies are data: the spec serializes to JSON...
	wire, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec %q serializes to %d bytes of JSON (see compress-spec.json)\n\n", spec.Name, len(wire))
	file, err := os.ReadFile("examples/policies/compress-spec.json")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(file, append(wire, '\n')) {
		fmt.Println("compress-spec.json is not this spec's JSON: rewrite it from json.MarshalIndent(spec, \"\", \"  \")")
	}

	// ...and the file is all the switch needs. This is the same path as
	// `ppbench -program examples/policies/compress-spec.json`.
	var loaded payloadpark.ProgramSpec
	if err := json.Unmarshal(file, &loaded); err != nil {
		log.Fatal(err)
	}

	base := payloadpark.Scenario{
		Name:     "policies-baseline",
		Topology: payloadpark.TestbedTopology{},
		Traffic:  payloadpark.Traffic{SendBps: 4e9, FixedSize: 512},
		Opts:     payloadpark.RunOptions{Seed: 1, Quick: true},
	}
	withPolicy := base
	withPolicy.Name = "policies-compress"
	withPolicy.Program = payloadpark.ProgramPolicy{Kind: "custom", Spec: &loaded}

	ctx := context.Background()
	baseRep, err := payloadpark.Run(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	compRep, err := payloadpark.Run(ctx, withPolicy)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("baseline:  goodput=%.3f Gbps  switch->NF=%.3f Gbps\n",
		baseRep.GoodputGbps, baseRep.Testbed.ToNFGbps)
	fmt.Printf("compress:  goodput=%.3f Gbps  switch->NF=%.3f Gbps\n",
		compRep.GoodputGbps, compRep.Testbed.ToNFGbps)
	for _, pc := range compRep.Programs {
		fmt.Printf("program %q: compressions=%d restores=%d contexts-leaked=%d\n",
			pc.Program, pc.Counters["compressions"], pc.Counters["restores"], pc.Occupancy)
	}
	saved := baseRep.Testbed.ToNFGbps - compRep.Testbed.ToNFGbps
	fmt.Printf("\nthe JSON-defined policy shaved %.3f Gbps off the NF link at identical goodput;\n", saved)
	fmt.Println("swapping in a different policy is a different JSON file, not a rebuild.")

	// Output:
	// spec "header-compress" serializes to 7871 bytes of JSON (see compress-spec.json)
	//
	// baseline:  goodput=0.328 Gbps  switch->NF=4.186 Gbps
	// compress:  goodput=0.328 Gbps  switch->NF=4.022 Gbps
	// program "header-compress": compressions=8790 restores=8792 contexts-leaked=0
	//
	// the JSON-defined policy shaved 0.164 Gbps off the NF link at identical goodput;
	// swapping in a different policy is a different JSON file, not a rebuild.
}

// The paper's headline experiment (Fig. 7) as one sweep grid: a
// FW -> NAT -> LB chain on a 10 GbE link receives enterprise-datacenter
// traffic, and baseline and PayloadPark deployments are compared as the
// offered load crosses the link's capacity. The grid's points run in
// parallel across a worker pool. Then cancellation: the same kind of grid
// under a deadline context stops mid-simulation.
func ExampleRunSweep() {
	chain := func() *payloadpark.Chain {
		fw := payloadpark.NewFirewall(nil) // empty blacklist: nothing drops
		nat := payloadpark.NewNAT(payloadpark.IPv4Addr{198, 51, 100, 1})
		lb, err := payloadpark.NewLoadBalancer(map[string]payloadpark.IPv4Addr{
			"backend-0": {10, 2, 0, 10},
			"backend-1": {10, 2, 0, 11},
			"backend-2": {10, 2, 0, 12},
			"backend-3": {10, 2, 0, 13},
		})
		if err != nil {
			log.Fatal(err)
		}
		return payloadpark.NewChain(fw, nat, lb)
	}
	base := payloadpark.Scenario{
		Name:     "fig7-shape",
		Topology: payloadpark.TestbedTopology{}, // 10 GbE Fig. 5 testbed
		Parking:  payloadpark.ParkingPolicy{Slots: 16384},
		Traffic:  payloadpark.Traffic{Dist: payloadpark.Datacenter()},
		Chain:    chain,
		Opts:     payloadpark.RunOptions{Seed: 1, WarmupNs: 5e6, MeasureNs: 20e6},
	}

	// 5 rates x 2 modes = 10 independent simulations, run in parallel.
	grid, err := payloadpark.RunSweep(context.Background(), payloadpark.Sweep{
		Base: base,
		Axes: []payloadpark.Axis{
			payloadpark.SendGbpsAxis(4, 8, 10, 11, 12),
			payloadpark.ParkingAxis(payloadpark.ParkNoneMode, payloadpark.ParkEdgeMode),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("FW->NAT->LB on 10GbE, datacenter traffic (avg 882B, 30% small)")
	fmt.Println()
	fmt.Println("send(G)  baseline-goodput  pp-goodput  baseline-lat   pp-lat")
	for i := 0; i < grid.Shape[0]; i++ {
		b, p := grid.At(i, 0).Report, grid.At(i, 1).Report
		fmt.Printf("%5s    %.3f Gbps        %.3f Gbps  %8.1f us  %8.1f us\n",
			grid.At(i, 0).Labels[0], b.GoodputGbps, p.GoodputGbps, b.AvgLatencyUs, p.AvgLatencyUs)
	}
	fmt.Println()
	fmt.Println("past 10G the baseline link saturates: its latency spikes and goodput")
	fmt.Println("plateaus, while PayloadPark keeps fitting more headers into the same wire.")

	// Cancellation reaches into running simulations: the event engine
	// polls the context every few thousand events, so even minutes-long
	// runs abort almost immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	long := base
	long.Opts.MeasureNs = 2e9 // would take minutes per point
	_, err = payloadpark.RunSweep(ctx, payloadpark.Sweep{
		Base: long,
		Axes: []payloadpark.Axis{payloadpark.SendGbpsAxis(4, 8, 12)},
	})
	fmt.Printf("\na minutes-long sweep canceled by its 30ms deadline returned the deadline error: %t\n",
		errors.Is(err, context.DeadlineExceeded))

	// Output:
	// FW->NAT->LB on 10GbE, datacenter traffic (avg 882B, 30% small)
	//
	// send(G)  baseline-goodput  pp-goodput  baseline-lat   pp-lat
	//     4    0.193 Gbps        0.193 Gbps       5.6 us       5.3 us
	//     8    0.384 Gbps        0.384 Gbps       6.0 us       5.7 us
	//    10    0.464 Gbps        0.480 Gbps     408.3 us       5.9 us
	//    11    0.466 Gbps        0.528 Gbps     834.8 us       6.6 us
	//    12    0.472 Gbps        0.526 Gbps     842.5 us     793.5 us
	//
	// past 10G the baseline link saturates: its latency spikes and goodput
	// plateaus, while PayloadPark keeps fitting more headers into the same wire.
	//
	// a minutes-long sweep canceled by its 30ms deadline returned the deadline error: true
}

// Eight NF servers share one switch (§6.2.3), two per pipe, with the
// reserved switch memory statically sliced between them. Performance
// isolation means every server sees the same gain. Each server is an
// 8-core Xeon whose NIC spreads flows over per-core RX queues with an RSS
// hash; a CoresAxis grid over that core count shows saturation emerging
// from per-core queues. Both grids measure 4 ms after a 1 ms warm-up
// (20 ms windows show the same gains and the same ordering).
func ExampleMultiServerTopology() {
	ctx := context.Background()

	// Run just past the baseline link's saturation point so the gain
	// shows. One grid, two points, run in parallel.
	grid, err := payloadpark.RunSweep(ctx, payloadpark.Sweep{
		Base: payloadpark.Scenario{
			Name:     "multiserver",
			Topology: payloadpark.MultiServerTopology{Servers: 8},
			Parking:  payloadpark.ParkingPolicy{Slots: 12000},
			Traffic:  payloadpark.Traffic{SendBps: 12e9, Dist: payloadpark.Fixed(384)},
			Opts:     payloadpark.RunOptions{Seed: 7, WarmupNs: 1e6, MeasureNs: 4e6},
		},
		Axes: []payloadpark.Axis{
			payloadpark.ParkingAxis(payloadpark.ParkNoneMode, payloadpark.ParkEdgeMode),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	base, pp := grid.Points[0].Report.MultiServer, grid.Points[1].Report.MultiServer

	fmt.Println("8 NF servers (MAC-swap), 384B packets, 12 Gbps offered per server (baseline link caps at ~9.4)")
	fmt.Println()
	fmt.Println("server   baseline            payloadpark         (GoodputGbps | ToNFGbps: useful-header bits | wire bits to the NF)")
	for i := range base.PerServer {
		b, p := base.PerServer[i], pp.PerServer[i]
		fmt.Printf("  %d      %.3f | %.2f Gbps   %.3f | %.2f Gbps\n",
			i+1, b.GoodputGbps, b.ToNFGbps, p.GoodputGbps, p.ToNFGbps)
	}
	fmt.Printf("\nshared switch SRAM with 8 sliced tables: %.1f%% avg / %.1f%% peak per stage\n",
		pp.SRAMAvgPct, pp.SRAMPeakPct)
	fmt.Println("every server improves by the same factor: static slicing isolates tenants.")

	// The core sweep is a CoresAxis grid over a 2-server scenario.
	sweep, err := payloadpark.RunSweep(ctx, payloadpark.Sweep{
		Base: payloadpark.Scenario{
			Name:     "cores",
			Topology: payloadpark.MultiServerTopology{Servers: 2},
			Parking:  payloadpark.ParkingPolicy{Slots: 12000},
			Traffic:  payloadpark.Traffic{SendBps: 8e9, Dist: payloadpark.Fixed(384)},
			Server:   payloadpark.MultiServerModel(),
			Opts:     payloadpark.RunOptions{Seed: 7, WarmupNs: 1e6, MeasureNs: 4e6},
		},
		Axes: []payloadpark.Axis{payloadpark.CoresAxis(1, 8)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("core sweep (MultiServerModel per-core costs, 8 Gbps offered, baseline):")
	fmt.Println("cores   drop-rate   avg-latency")
	for _, pt := range sweep.Points {
		r := pt.Report.MultiServer.PerServer[0]
		fmt.Printf("  %s     %6.2f%%     %8.1f us\n", pt.Labels[0], 100*r.UnintendedDropRate, r.AvgLatencyUs)
	}
	fmt.Println("per-core RX queues saturate one by one: drops vanish once the core count covers the offered load.")

	// Output:
	// 8 NF servers (MAC-swap), 384B packets, 12 Gbps offered per server (baseline link caps at ~9.4)
	//
	// server   baseline            payloadpark         (GoodputGbps | ToNFGbps: useful-header bits | wire bits to the NF)
	//   1      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//   2      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//   3      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//   4      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//   5      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//   6      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//   7      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//   8      0.960 | 9.32 Gbps   1.312 | 7.97 Gbps
	//
	// shared switch SRAM with 8 sliced tables: 25.6% avg / 29.3% peak per stage
	// every server improves by the same factor: static slicing isolates tenants.
	//
	// core sweep (MultiServerModel per-core costs, 8 Gbps offered, baseline):
	// cores   drop-rate   avg-latency
	//   1      80.22%       1992.3 us
	//   8       0.00%          7.5 us
	// per-core RX queues saturate one by one: drops vanish once the core count covers the offered load.
}

// Payload parking across a leaf-spine fabric. The paper parks payloads at
// a single ToR switch; its §7 deployment story is a fabric. This example
// sends the same offered load through a 4-leaf, 2-spine fabric three ways —
// no parking, park-at-edge (payload parked at the ingress leaf, slim
// packets on every fabric hop), and park-at-every-hop (§7 striping:
// ingress leaf, spine and egress leaf each park a block) — as one RunSweep
// grid whose points run in parallel, at Opts.Quick's short measurement
// window (full-length runs show the same ordering). ExampleControl runs a
// link failure.
func ExampleLeafSpineTopology() {
	avgUtil := func(links []payloadpark.LinkStats, pat string) float64 {
		var sum float64
		var n int
		for _, l := range links {
			if strings.Contains(l.Name, pat) {
				sum += l.UtilPct
				n++
			}
		}
		return sum / float64(n)
	}

	fmt.Println("4x2 leaf-spine, 10GbE, datacenter packet mix, 11 Gbps offered per source")
	fmt.Println("(past the baseline fabric's saturation; within the slim-packet envelope)")
	fmt.Println()

	// One declarative grid: the parking mode is the axis, everything else
	// is the base scenario. The three points run in parallel workers.
	grid, err := payloadpark.RunSweep(context.Background(), payloadpark.Sweep{
		Base: payloadpark.Scenario{
			Name:     "fabric",
			Topology: payloadpark.LeafSpineTopology{Leaves: 4, Spines: 2},
			Traffic:  payloadpark.Traffic{SendBps: 11e9},
			Opts:     payloadpark.RunOptions{Seed: 7, Quick: true},
		},
		Axes: []payloadpark.Axis{
			payloadpark.ParkingAxis(
				payloadpark.ParkNoneMode, payloadpark.ParkEdgeMode, payloadpark.ParkEveryHopMode,
			),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("mode       goodput    drop     lat      spine-util  nf-link-util")
	base := grid.Points[0].Report.GoodputGbps
	for _, pt := range grid.Points {
		r := pt.Report
		fmt.Printf("%-9s  %.3f Gbps (%+.1f%%)  %.2f%%  %6.1fus  %5.1f%%  %5.1f%%\n",
			r.Mode, r.GoodputGbps, 100*(r.GoodputGbps/base-1),
			100*r.UnintendedDropRate, r.AvgLatencyUs,
			avgUtil(r.Fabric.Links, "->spine"), avgUtil(r.Fabric.Links, "->nf"))
	}
	fmt.Println()
	fmt.Println("edge parking keeps the same offered load healthy: every fabric hop")
	fmt.Println("carries slim packets. striping additionally unloads the NF links and")
	fmt.Println("spreads switch-memory pressure over the path.")

	// Output:
	// 4x2 leaf-spine, 10GbE, datacenter packet mix, 11 Gbps offered per source
	// (past the baseline fabric's saturation; within the slim-packet envelope)
	//
	// mode       goodput    drop     lat      spine-util  nf-link-util
	// baseline   1.824 Gbps (+0.0%)  3.91%   666.6us   98.7%   98.7%
	// edge       2.109 Gbps (+15.6%)  0.00%    14.5us   91.6%   91.6%
	// everyhop   2.109 Gbps (+15.6%)  0.00%    13.8us   86.7%   72.2%
	//
	// edge parking keeps the same offered load healthy: every fabric hop
	// carries slim packets. striping additionally unloads the NF links and
	// spreads switch-memory pressure over the path.
}

// ECMP multipath routing and the fabric-wide adaptive parking controller.
// The paper sketches a dynamic eviction policy as future work (§7). This
// example runs the 6x3 leaf-spine link-failure scenario twice at the same
// offered load — static routes with a 2 ms reroute delay, then ECMP hash
// groups under a controller that reads link telemetry every 250 µs — and
// prints the controller's decision timeline: the dead spine leaves flow
// 0's hash group one tick after the failure, and Maglev membership moves
// only the flows that rode it, so the payloads parked at the ingress leaf
// keep merging. On the static path the merge port pins the return path,
// so parked state survives the reroute; only payloads whose packets were
// lost in flight are orphaned, and expiry eviction reclaims them.
func ExampleControl() {
	ctx := context.Background()

	mk := func(name string, ctl payloadpark.Control) payloadpark.Scenario {
		return payloadpark.Scenario{
			Name: name,
			Topology: payloadpark.LeafSpineTopology{
				Leaves: 6, Spines: 3,
				FailLink: true, FailAtNs: 6_100_000, RerouteNs: 2e6,
			},
			Parking: payloadpark.ParkingPolicy{Mode: payloadpark.ParkEdgeMode},
			Control: ctl,
			Traffic: payloadpark.Traffic{SendBps: 4.5e9},
			Opts:    payloadpark.RunOptions{Seed: 7, WarmupNs: 2e6, MeasureNs: 24e6},
		}
	}

	fmt.Println("6x3 leaf-spine, edge parking, 4.5 Gbps/source; flow 0's forward")
	fmt.Println("spine link dies at 6.1 ms.")
	fmt.Println()

	static, err := payloadpark.Run(ctx, mk("static", payloadpark.Control{}))
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := payloadpark.Run(ctx, mk("ecmp+adaptive",
		payloadpark.Control{ECMP: true, Adaptive: true}))
	if err != nil {
		log.Fatal(err)
	}

	show := func(label string, r *payloadpark.Report) {
		fmt.Printf("%-14s goodput=%.3f Gbps  flow-0 deliveries pre/outage/post = %v  premature=%d\n",
			label, r.GoodputGbps, r.Fabric.PhaseDelivered, r.Premature)
	}
	show("static:", static)
	show("ecmp+adaptive:", ctl)
	var orphans int
	for _, sw := range static.Fabric.Switches {
		orphans += sw.Occupancy
	}
	fmt.Printf("static: parked payloads orphaned by in-flight losses: %d (expiry eviction reclaims them)\n", orphans)

	fmt.Println()
	fmt.Println("controller decision timeline:")
	for _, d := range ctl.Control.Decisions {
		fmt.Printf("  %8.3f ms  %-8s %-12s %s\n", float64(d.AtNs)/1e6, d.Kind, d.Target, d.Detail)
	}
	fmt.Printf("(%d telemetry ticks every %.0f us; reroute landed one tick after the failure,\n",
		ctl.Control.Ticks, float64(ctl.Control.PeriodNs)/1e3)
	fmt.Println(" vs the static path's 2 ms detection+programming delay)")

	// Every Scenario — including the control-plane spec — serializes;
	// `ppbench -scenario file.json` runs the same file.
	wire, err := json.MarshalIndent(mk("from-a-file", payloadpark.Control{ECMP: true, Adaptive: true}), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("the same scenario as a file for `ppbench -scenario`:")
	fmt.Printf("%s\n", wire)

	// Output:
	// 6x3 leaf-spine, edge parking, 4.5 Gbps/source; flow 0's forward
	// spine link dies at 6.1 ms.
	//
	// static:        goodput=1.276 Gbps  flow-0 deliveries pre/outage/post = [3851 2 12047]  premature=0
	// ecmp+adaptive: goodput=1.294 Gbps  flow-0 deliveries pre/outage/post = [3851 1252 12049]  premature=0
	// static: parked payloads orphaned by in-flight losses: 0 (expiry eviction reclaims them)
	//
	// controller decision timeline:
	//      6.250 ms  reroute  leaf0->nf1   members spine0,spine2 -> spine2
	// (112 telemetry ticks every 250 us; reroute landed one tick after the failure,
	//  vs the static path's 2 ms detection+programming delay)
	//
	// the same scenario as a file for `ppbench -scenario`:
	// {
	//   "name": "from-a-file",
	//   "topology": {
	//     "kind": "leafspine",
	//     "config": {
	//       "leaves": 6,
	//       "spines": 3,
	//       "fail_link": true,
	//       "fail_at_ns": 6100000,
	//       "reroute_ns": 2000000
	//     }
	//   },
	//   "parking": {
	//     "mode": "edge"
	//   },
	//   "control": {
	//     "ecmp": true,
	//     "adaptive": true
	//   },
	//   "traffic": {
	//     "send_bps": 4500000000
	//   },
	//   "opts": {
	//     "seed": 7,
	//     "warmup_ns": 2000000,
	//     "measure_ns": 24000000
	//   }
	// }
}

// The same parking deployment on real UDP loopback sockets instead of the
// simulator. A LiveTopology scenario brings up an actual packet fabric:
// one worker socket per RMT pipe in use, a generator and an NF daemon on
// their own sockets, Ethernet-over-UDP frames on the wire. Each flow keeps
// at most Window frames without a fate in flight; at a Window of at most
// the table's slots no slot is re-claimed before its header returns, so
// the counters are exact: `ppbench -exp live` holds them to equality with
// an in-process reference replay. At the default wider window
// Report.Live carries the loopback wire rate (`ppbench -exp live` and the
// benchmark's live_chain workload measure it).
func ExampleLiveTopology() {
	// 64 frames through gen -> switch (parking) -> NF -> back, with the NF
	// dropping a quarter of the slim packets so eviction and expiry paths
	// run too.
	rep, err := payloadpark.Run(context.Background(), payloadpark.Scenario{
		Name:     "live-parity",
		Topology: payloadpark.LiveTopology{Geometry: "chain", Frames: 64, Window: 16, DropFraction: 0.25},
		Parking:  payloadpark.ParkingPolicy{Mode: payloadpark.ParkEdgeMode, Slots: 16, ExplicitDrop: true},
		Traffic:  payloadpark.Traffic{FixedSize: 512, Flows: 32},
		Opts:     payloadpark.RunOptions{Seed: 11},
	})
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Live
	fmt.Printf("chain at window 16: sent %d, delivered %d, NF dropped %d, drop notices %d\n",
		res.Sent, res.Delivered, res.NFDropped, res.NFNotified)
	fmt.Printf("  switch counters: %d splits, %d merges, %d explicit drops, %d evictions\n",
		res.Counters.Splits, res.Counters.Merges, res.Counters.ExplicitDrops, res.Counters.Evictions)

	// Output:
	// chain at window 16: sent 64, delivered 49, NF dropped 0, drop notices 15
	//   switch counters: 64 splits, 49 merges, 15 explicit drops, 0 evictions
}
