// Command ppnf runs a PayloadPark-unaware NF server as a userspace daemon
// over UDP sockets: an nf.Server, the framework every NF endpoint of the
// reproduction hosts, built from the flags. It runs one of the paper's
// chains and returns processed frames to the switch; the PayloadPark
// header riding in the payload region passes through untouched. With
// -explicit-drop the framework turns a dropped packet that parked a
// payload into the §6.2.4 notification.
//
// Like ppswitchd, it reads a datagram of up to wire.DefaultBurst frames
// as one burst and returns the processed burst through the reused-buffer
// batched sender (wire.BatchSender), packed into one datagram.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/wire"
)

func buildChain(spec string, dropFrac float64) (*nf.Chain, error) {
	if !(dropFrac >= 0 && dropFrac < 1) { // false for NaN too
		return nil, fmt.Errorf("-fw-drop = %v outside [0, 1)", dropFrac)
	}
	var nfs []nf.NF
	firewall := false
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "macswap":
			nfs = append(nfs, nf.MACSwap{})
		case "fw", "firewall":
			nfs = append(nfs, nf.NewFirewall(nf.BlacklistFraction(dropFrac)))
			firewall = true
		case "nat":
			nfs = append(nfs, nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}))
		case "lb":
			lb, err := nf.NewLoadBalancer(map[string]packet.IPv4Addr{
				"backend-0": {10, 2, 0, 10}, "backend-1": {10, 2, 0, 11},
				"backend-2": {10, 2, 0, 12}, "backend-3": {10, 2, 0, 13},
			})
			if err != nil {
				return nil, err
			}
			nfs = append(nfs, lb)
		default:
			return nil, fmt.Errorf("unknown NF %q (want macswap|fw|nat|lb)", part)
		}
	}
	if dropFrac > 0 && !firewall {
		return nil, fmt.Errorf("-fw-drop = %v needs a firewall, but -chain %q holds no fw", dropFrac, spec)
	}
	return nf.NewChain(nfs...), nil
}

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7002", "UDP listen address")
		swAddr   = flag.String("switch", "127.0.0.1:7000", "switch address")
		chainStr = flag.String("chain", "macswap", "comma-separated chain: macswap,fw,nat,lb")
		dropFrac = flag.Float64("fw-drop", 0, "firewall blacklist fraction in [0, 1)")
		explicit = flag.Bool("explicit-drop", false, "send Explicit Drop notifications (§6.2.4)")
		metrics  = flag.String("metrics", "", "serve Prometheus text exposition at http://ADDR/metrics (e.g. 127.0.0.1:9001)")
	)
	flag.Parse()

	chain, err := buildChain(*chainStr, *dropFrac)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppnf: %v\n", err)
		os.Exit(2)
	}
	d, err := wire.NewNFDaemon(*listen, *swAddr, nil, nf.NewServer(nf.ServerConfig{Chain: chain, ExplicitDrop: *explicit}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppnf: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ppnf: %s on %s -> switch %s (explicit-drop=%t)\n", chain.Name(), d.Addr(), *swAddr, *explicit)

	if *metrics != "" {
		reg := obs.NewRegistry()
		d.RegisterMetrics(reg)
		addr, err := reg.Serve(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppnf: -metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ppnf: metrics at http://%s/metrics\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, d.Close)
	if err := d.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "ppnf: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ppnf: rx=%d tx=%d dropped=%d notified=%d\n",
		d.Rx.Load(), d.Tx.Load(), d.Dropped.Load(), d.Notified.Load())
}
