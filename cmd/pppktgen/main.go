// Command pppktgen is the wire-mode traffic generator: it sends UDP
// packets (fixed-size or the paper's datacenter mix) through the switch
// and reports how many came back intact.
//
// Each frame is serialized as it is sent, into one reused buffer
// (trafficgen.Generator.AppendFrame into a wire.BatchSender, the send path
// the live fabric's sources use). The paced sender flushes one frame per
// datagram. -blast replaces it with the open-loop batched path: frames are
// flushed wire.DefaultBurst at a time, packed into one datagram,
// reporting achieved pps and Gbps instead of pacing to -pps.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
	"github.com/payloadpark/payloadpark/internal/wire"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:7001", "UDP listen address (frames return here)")
		swAddr = flag.String("switch", "127.0.0.1:7000", "switch address")
		count  = flag.Int("count", 10000, "packets to send")
		size   = flag.Int("size", 0, "fixed packet size in bytes (0 = datacenter mix)")
		pps    = flag.Int("pps", 20000, "send rate in packets/second")
		seed   = flag.Int64("seed", 1, "random seed")
		blast  = flag.Bool("blast", false, "open-loop batched sends (ignore -pps), report wire rate")
	)
	flag.Parse()
	switch {
	case *count < 1:
		fail("-count = %d outside [1, +Inf)", *count)
	case *pps < 1 && !*blast:
		fail("-pps = %d outside [1, +Inf)", *pps)
	}
	if err := (sim.Traffic{FixedSize: *size}).Validate(); err != nil {
		fail("-size: %v", err)
	}

	var dist trafficgen.SizeDist = trafficgen.Datacenter{}
	if *size > 0 {
		dist = trafficgen.Fixed(*size)
	}
	gen := trafficgen.New(trafficgen.Config{
		Sizes: dist, Flows: 1024,
		SrcMAC: sim.MACGen, DstMAC: sim.MACNF,
		DstIP: packet.IPv4Addr{10, 1, 0, 9}, DstPort: 80,
		Seed: *seed,
	})

	recv := wire.NewWaiter()
	g, err := wire.NewGenerator(*listen, *swAddr, recv)
	if err != nil {
		fail("%v", err)
	}

	burst, interval := 1, time.Second/time.Duration(max(*pps, 1))
	if *blast {
		burst, interval = wire.DefaultBurst, 0
		fmt.Printf("pppktgen: %s -> %s, %d packets open-loop batched (%s sizes)\n",
			g.Addr(), *swAddr, *count, dist.Name())
	} else {
		fmt.Printf("pppktgen: %s -> %s, %d packets at %d pps (%s sizes)\n",
			g.Addr(), *swAddr, *count, *pps, dist.Name())
	}
	bs, dst := g.BatchSender(), g.SwitchUDPAddr()
	var sentBytes int
	start := time.Now()
	for i := 0; i < *count; i++ {
		out := bs.Begin()
		frame := gen.AppendFrame(out)
		sentBytes += len(frame) - len(out)
		bs.Commit(frame, dst, &g.Sent)
		if bs.Pending() < burst && i+1 < *count {
			continue
		}
		if bs.Flush() != 0 && !*blast {
			fail("send of packet %d to %s failed", i, *swAddr)
		}
		time.Sleep(interval)
	}
	elapsed := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	recv.WaitFor(ctx, func() bool { return g.Received.Load() >= uint64(*count) })
	got := g.Received.Load()
	fmt.Printf("pppktgen: sent=%d (%.2f Mbit, %.1fs) received=%d loss=%.3f%%\n",
		g.Sent.Load(), float64(sentBytes)*8/1e6, elapsed.Seconds(),
		got, 100*float64(g.Sent.Load()-got)/float64(g.Sent.Load()))
	if *blast && elapsed > 0 {
		secs := elapsed.Seconds()
		fmt.Printf("pppktgen: wire rate %.0f pps, %.3f Gbps sent\n",
			float64(g.Sent.Load())/secs, float64(sentBytes)*8/secs/1e9)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pppktgen: "+format+"\n", args...)
	os.Exit(1)
}
