// Command ppswitchd runs the PayloadPark switch as a userspace daemon
// over UDP sockets: raw Ethernet frames ride one-per-datagram between the
// generator, this switch, and the NF server.
//
// Frames are read in bursts of up to -burst datagrams, one recvmmsg on
// Linux (wire.BurstReader), and the whole burst is driven through the
// switch's zero-alloc batch path; emissions are serialized back-to-back
// into one reused buffer and flushed with a single sendmmsg on Linux
// (wire.BatchSender) — the same receive and send path the live fabric's
// per-pipe workers use.
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
	"net/http"
	"os"
	"os/signal"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/wire"
)

// Fixed demo topology MACs, shared by the three wire commands.
var (
	genMAC = packet.MAC{0x02, 0, 0, 0, 0, 0x01}
	nfMAC  = packet.MAC{0x02, 0, 0, 0, 0, 0x02}
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7000", "UDP listen address")
		genAddr = flag.String("gen", "127.0.0.1:7001", "traffic generator address (cabled to port 0)")
		nfAddr  = flag.String("nf", "127.0.0.1:7002", "NF server address (cabled to port 1)")
		slots   = flag.Int("slots", 4096, "lookup table capacity (0 = baseline L2 switch)")
		expiry  = flag.Uint("expiry", 1, "expiry threshold MAX_EXP")
		recirc  = flag.Bool("recirculate", false, "park 384 bytes via recirculation")
		burst   = flag.Int("burst", wire.DefaultBurst, "most datagrams one receive (one recvmmsg on Linux) returns")
		metrics = flag.String("metrics", "", "serve Prometheus text exposition at http://ADDR/metrics (e.g. 127.0.0.1:9000)")
	)
	flag.Parse()

	cfg := wire.SwitchConfig{
		Listen: *listen,
		Ports: map[rmt.PortID]string{
			0: *genAddr,
			1: *nfAddr,
		},
		L2: map[packet.MAC]rmt.PortID{
			nfMAC:  1,
			genMAC: 0,
		},
		RecircPipe: -1,
		Burst:      *burst,
	}
	if *slots > 0 {
		cfg.PP = &core.Config{
			Slots: *slots, MaxExpiry: uint32(*expiry),
			SplitPort: 0, MergePort: 1, Recirculate: *recirc,
		}
		if *recirc {
			cfg.RecircPipe = 1
		}
	}
	d, err := wire.NewSwitchDaemon(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppswitchd: %v\n", err)
		os.Exit(1)
	}
	mode := "baseline (L2 only)"
	if cfg.PP != nil {
		mode = fmt.Sprintf("payloadpark slots=%d expiry=%d recirculate=%t", *slots, *expiry, *recirc)
	}
	fmt.Printf("ppswitchd: listening on %s, gen=%s nf=%s, %s\n", d.Addr(), *genAddr, *nfAddr, mode)

	if *metrics != "" {
		if err := serveMetrics(*metrics, d.RegisterMetrics, "ppswitchd"); err != nil {
			fmt.Fprintf(os.Stderr, "ppswitchd: %v\n", err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := d.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ppswitchd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ppswitchd: rx=%d tx=%d errors=%d\n", d.Rx.Load(), d.Tx.Load(), d.Errors.Load())
	fmt.Printf("ppswitchd: %s\n", d.Counters().String())
}

// serveMetrics binds addr, registers the daemon's atomics via register,
// and serves GET /metrics in the background. Binding synchronously means
// a bad -metrics address fails at startup, not silently mid-run.
func serveMetrics(addr string, register func(*obs.Registry), name string) error {
	reg := obs.NewRegistry()
	register(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-metrics: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	fmt.Printf("%s: metrics at http://%s/metrics\n", name, ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", name, err)
		}
	}()
	return nil
}
