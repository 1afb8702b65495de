// Command ppcap materializes and inspects workload captures: it writes
// the paper's Fig. 6 enterprise-datacenter packet mix as a standard pcap
// file, prints size statistics for any Ethernet capture, and replays a
// capture through the in-process testbed.
//
//	ppcap -gen 100000 -out workload.pcap     # write the Fig. 6 workload
//	ppcap -stats workload.pcap               # packet-size CDF of a capture
//	ppcap -drive workload.pcap               # replay through switch -> NF -> switch
//
// -drive round-trips the capture's packets (pooled and recycled, so steady
// state allocates nothing) through the in-process testbed — one
// PayloadPark switch and a MAC-swap NF server, no clock, no sockets — and
// reports packets, splits, merges and ns/packet.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/pcap"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func main() {
	var (
		gen      = flag.Int("gen", 0, "generate N datacenter-mix packets")
		out      = flag.String("out", "workload.pcap", "output file for -gen")
		size     = flag.Int("size", 0, "fixed packet size for -gen (0 = datacenter mix)")
		seed     = flag.Int64("seed", 1, "random seed for -gen")
		stat     = flag.String("stats", "", "print size statistics of a capture file")
		driveCap = flag.String("drive", "", "replay a capture through the in-process testbed")
		rounds   = flag.Int("rounds", 32, "passes over the capture for -drive")
	)
	flag.Parse()

	switch {
	case *gen > 0:
		if err := generate(*gen, *size, *seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "ppcap: %v\n", err)
			os.Exit(1)
		}
	case *stat != "":
		if err := statistics(*stat); err != nil {
			fmt.Fprintf(os.Stderr, "ppcap: %v\n", err)
			os.Exit(1)
		}
	case *driveCap != "":
		if err := drive(*driveCap, *rounds); err != nil {
			fmt.Fprintf(os.Stderr, "ppcap: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// drive replays a capture through the in-process testbed and reports
// throughput.
func drive(path string, rounds int) error {
	if rounds < 1 {
		return fmt.Errorf("-rounds = %d, want at least 1", rounds)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := pcap.ReadAll(f)
	if err != nil {
		return err
	}
	rp, err := trafficgen.NewReplay(recs, sim.MACGen, sim.MACNF)
	if err != nil {
		return err
	}
	tb, err := sim.NewInProcess(sim.Sections{Parking: sim.Parking{Mode: sim.ParkEdge, Slots: 8192, MaxExpiry: 1}})
	if err != nil {
		return err
	}
	n := rounds * rp.Len()
	delivered := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		pkt := rp.Next()
		if out := tb.Process(pkt); out != nil {
			delivered++
		}
		rp.Recycle(pkt)
	}
	elapsed := time.Since(start)
	fmt.Printf("ppcap: replayed %d packets (%d rounds): packets=%d delivered=%d splits=%d merges=%d elapsed=%s ns/pkt=%.0f\n",
		rp.Len(), rounds, n, delivered, tb.Prog.C.Splits.Value(), tb.Prog.C.Merges.Value(),
		elapsed.Round(time.Millisecond), float64(elapsed.Nanoseconds())/float64(n))
	return nil
}

func generate(n, size int, seed int64, path string) error {
	if err := (sim.Traffic{FixedSize: size}).Validate(); err != nil {
		return fmt.Errorf("-size: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var dist trafficgen.SizeDist = trafficgen.Datacenter{}
	if size > 0 {
		dist = trafficgen.Fixed(size)
	}
	cfg := trafficgen.Config{
		Sizes: dist, Flows: 1024,
		SrcMAC: packet.MAC{0x02, 0, 0, 0, 0, 0x01},
		DstMAC: packet.MAC{0x02, 0, 0, 0, 0, 0x02},
		DstIP:  packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80,
		Seed: seed,
	}
	if err := trafficgen.WriteWorkload(pcap.NewWriter(f), cfg, n); err != nil {
		return err
	}
	fmt.Printf("ppcap: wrote %d packets (%s sizes) to %s\n", n, dist.Name(), path)
	return nil
}

func statistics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := pcap.ReadAll(f)
	if err != nil {
		return err
	}
	cdf := stats.NewCDF()
	var sum stats.Summary
	for _, r := range recs {
		cdf.Observe(float64(len(r.Data)))
		sum.Observe(float64(len(r.Data)))
	}
	fmt.Printf("packets=%d mean=%.1fB min=%.0f max=%.0f\n",
		sum.Count(), sum.Mean(), sum.Min(), sum.Max())
	fmt.Println("size CDF:")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		fmt.Printf("  p%02.0f  %5.0f B\n", q*100, cdf.Quantile(q))
	}
	fmt.Printf("  P(size <= 201) = %.3f (sub-160B payloads)\n", cdf.At(201))
	return nil
}
