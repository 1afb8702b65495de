// Command ppswitchd runs the PayloadPark switch as a userspace daemon
// over UDP sockets: raw Ethernet frames ride between the generator, this
// switch, and the NF server, up to wire.DefaultBurst of them for one peer
// in a datagram, each behind its 2-byte length.
//
// The switch is the Fig. 5 testbed graph (sim.Testbed's), loaded by
// sim.Graph.Realise like every other backend's: the generator on port
// 0, where payloads split, the NF server on port 1, where they merge, and
// the sink — the generator's receive side — on port 2. Each datagram's
// frames are one burst, driven through the switch's zero-alloc batch path
// by one wire.SwitchLoop — the loop the live fabric runs per pipe — and
// the emissions leave packed into one datagram per peer.
//
// Example (three terminals):
//
//	ppswitchd -listen 127.0.0.1:7000 -gen 127.0.0.1:7001 -nf 127.0.0.1:7002 -slots 4096
//	ppnf      -listen 127.0.0.1:7002 -switch 127.0.0.1:7000
//	pppktgen  -listen 127.0.0.1:7001 -switch 127.0.0.1:7000 -count 10000
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"sync/atomic"

	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/wire"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7000", "UDP listen address")
		genAddr = flag.String("gen", "127.0.0.1:7001", "traffic generator address (cabled to port 0, and to the sink port)")
		nfAddr  = flag.String("nf", "127.0.0.1:7002", "NF server address (cabled to port 1)")
		slots   = flag.Int("slots", 4096, "lookup table capacity (0 = baseline L2 switch)")
		expiry  = flag.Uint("expiry", 1, "expiry threshold MAX_EXP")
		recirc  = flag.Bool("recirculate", false, "park 384 bytes via recirculation")
		metrics = flag.String("metrics", "", "serve Prometheus text exposition at http://ADDR/metrics (e.g. 127.0.0.1:9000)")
	)
	flag.Parse()

	s := sim.Sections{Name: "ppswitchd"}
	mode := "baseline (L2 only)"
	if *slots != 0 {
		s.Parking = sim.Parking{Mode: sim.ParkEdge, Slots: *slots, MaxExpiry: uint32(*expiry), Recirculate: *recirc}
		if err := s.Parking.Validate(); err != nil {
			fail("%v", err)
		}
		mode = fmt.Sprintf("payloadpark slots=%d expiry=%d recirculate=%t", *slots, *expiry, *recirc)
	}
	g := sim.Testbed{}.Graph(s)
	sws, err := g.RealiseAll()
	if err != nil {
		fail("%v", err)
	}

	conn, err := wire.Listen(*listen)
	if err != nil {
		fail("-listen: %v", err)
	}
	gen, err := net.ResolveUDPAddr("udp", *genAddr)
	if err != nil {
		fail("-gen: %v", err)
	}
	nf, err := net.ResolveUDPAddr("udp", *nfAddr)
	if err != nil {
		fail("-nf: %v", err)
	}
	var rx, tx, errs atomic.Uint64
	loop := &wire.SwitchLoop{
		Conn: conn, SW: sws[0],
		Peers: make(map[netip.AddrPort]rmt.PortID),
		Addrs: make(map[rmt.PortID]*net.UDPAddr),
		Rx:    &rx, Tx: &tx, Errors: &errs,
	}
	// The sink is the generator's receive side: cable its port first, so
	// the split port's cabling decides where the generator's frames enter.
	fl := &g.Flows[0]
	loop.Cable(fl.Sink.At.Port, gen)
	loop.Cable(fl.Gen.At.Port, gen)
	loop.Cable(fl.NF.At.Port, nf)
	fmt.Printf("ppswitchd: listening on %s, gen=%s nf=%s, %s\n", conn.LocalAddr(), *genAddr, *nfAddr, mode)

	if *metrics != "" {
		reg := obs.NewRegistry()
		reg.Counter("pp_switch_rx_frames_total", "frames received", rx.Load)
		reg.Counter("pp_switch_tx_frames_total", "frames forwarded", tx.Load)
		reg.Counter("pp_switch_errors_total", "rejected datagrams and parse/forward/send failures", errs.Load)
		loop.BurstHist = reg.Histogram("pp_switch_rx_burst_frames", "frames drained per receive burst")
		loop.BatchHist = reg.Histogram("pp_switch_tx_batch_frames", "frames written per batched send")
		addr, err := reg.Serve(*metrics)
		if err != nil {
			fail("-metrics: %v", err)
		}
		fmt.Printf("ppswitchd: metrics at http://%s/metrics\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, func() { conn.Close() })
	if err := loop.Run(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("ppswitchd: rx=%d tx=%d errors=%d\n", rx.Load(), tx.Load(), errs.Load())
	c := sws[0].ParkCounters()
	fmt.Printf("ppswitchd: %s\n", c.String())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ppswitchd: "+format+"\n", args...)
	os.Exit(1)
}
