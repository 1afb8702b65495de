// Multi-server example (§6.2.3), driven through the unified Scenario
// API: eight NF servers share one switch, two per pipe, with the
// reserved switch memory statically sliced between them. Performance
// isolation means every server sees the same gain.
//
// Each server is an 8-core Xeon whose NIC spreads flows over per-core RX
// queues with an RSS hash; -cores sweeps that core count (one RunSweep
// grid) to show saturation emerging from per-core queues.
//
//	go run ./examples/multiserver [-cores 1,2,4,8]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	payloadpark "github.com/payloadpark/payloadpark"
)

// scenario builds the 8-server run; the parking mode is the only knob
// the comparison turns.
func scenario(mode payloadpark.ParkMode, sendGbps float64) payloadpark.Scenario {
	return payloadpark.Scenario{
		Name:     "multiserver",
		Topology: payloadpark.MultiServerTopology{Servers: 8},
		Parking:  payloadpark.ParkingPolicy{Mode: mode, Slots: 12000},
		Traffic:  payloadpark.Traffic{SendBps: sendGbps * 1e9, Dist: payloadpark.Fixed(384)},
		Opts:     payloadpark.RunOptions{Seed: 7, WarmupNs: 5e6, MeasureNs: 20e6},
	}
}

func main() {
	coresFlag := flag.String("cores", "", "comma-separated core counts to sweep (e.g. 1,2,4,8)")
	flag.Parse()
	ctx := context.Background()

	// Run just past the baseline link's saturation point so the gain
	// shows. One grid, two points, run in parallel.
	grid, err := payloadpark.RunSweep(ctx, payloadpark.Sweep{
		Base: scenario(payloadpark.ParkNoneMode, 12),
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

	if *coresFlag == "" {
		return
	}
	var counts []int
	for _, f := range strings.Split(*coresFlag, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c < 1 || c > 64 {
			log.Fatalf("bad core count %q (want 1..64)", f)
		}
		counts = append(counts, c)
	}

	// The core sweep is a CoresAxis grid over a 2-server scenario.
	sweep, err := payloadpark.RunSweep(ctx, payloadpark.Sweep{
		Base: payloadpark.Scenario{
			Name:     "cores",
			Topology: payloadpark.MultiServerTopology{Servers: 2},
			Parking:  payloadpark.ParkingPolicy{Slots: 12000},
			Traffic:  payloadpark.Traffic{SendBps: 8e9, Dist: payloadpark.Fixed(384)},
			Server:   payloadpark.MultiServerModel(),
			Opts:     payloadpark.RunOptions{Seed: 7, WarmupNs: 5e6, MeasureNs: 20e6},
		},
		Axes: []payloadpark.Axis{payloadpark.CoresAxis(counts...)},
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
}
