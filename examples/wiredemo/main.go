// Wire demo: the full PayloadPark dataplane over real UDP sockets, all
// three endpoints (generator, switch, NF server) in one process on
// localhost. The same binary-accurate switch program that runs in the
// simulator forwards real datagrams here.
//
//	go run ./examples/wiredemo
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/wire"
)

var (
	genMAC = packet.MAC{0x02, 0, 0, 0, 0, 0x01}
	nfMAC  = packet.MAC{0x02, 0, 0, 0, 0, 0x02}
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Traffic generator endpoint (also the sink).
	gen, err := wire.NewGenerator(ctx, wire.GenConfig{Listen: "127.0.0.1:0", SwitchAddr: "127.0.0.1:1"})
	if err != nil {
		log.Fatal(err)
	}
	// NF server: MAC swapper, PayloadPark-unaware.
	nfd, err := wire.NewNFDaemon(wire.NFConfig{
		Listen: "127.0.0.1:0", SwitchAddr: "127.0.0.1:1",
		Handle: func(p *packet.Packet) bool {
			p.Eth.Src, p.Eth.Dst = p.Eth.Dst, p.Eth.Src
			return true
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The switch, cabled to both.
	swd, err := wire.NewSwitchDaemon(wire.SwitchConfig{
		Listen:     "127.0.0.1:0",
		Ports:      map[rmt.PortID]string{0: gen.Addr(), 1: nfd.Addr()},
		L2:         map[packet.MAC]rmt.PortID{nfMAC: 1, genMAC: 0},
		PP:         &core.Config{Slots: 1024, MaxExpiry: 1, SplitPort: 0, MergePort: 1},
		RecircPipe: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Point the other endpoints at the switch's real address.
	if err := gen.Retarget(swd.Addr()); err != nil {
		log.Fatal(err)
	}
	if err := nfd.Retarget(swd.Addr()); err != nil {
		log.Fatal(err)
	}

	go swd.Run(ctx)
	go nfd.Run(ctx)

	fmt.Printf("switch on %s, nf on %s, generator on %s\n\n", swd.Addr(), nfd.Addr(), gen.Addr())

	flow := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	b := packet.NewBuilder(genMAC, nfMAC)
	const n = 100
	sent := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		pkt := b.UDP(flow, 400+i*10, uint16(i))
		sent = append(sent, append([]byte(nil), pkt.Payload...))
		if err := gen.Send(pkt.Serialize()); err != nil {
			log.Fatal(err)
		}
	}
	got := gen.WaitReceived(n, 5*time.Second)
	intact := 0
	for _, frame := range gen.Drain() {
		pkt, err := packet.ParseAt(frame, -1)
		if err != nil {
			continue
		}
		for j, payload := range sent {
			if payload != nil && bytes.Equal(pkt.Payload, payload) {
				sent[j] = nil
				intact++
				break
			}
		}
	}
	cancel()
	time.Sleep(20 * time.Millisecond)

	fmt.Printf("sent=%d received=%d payloads-intact=%d\n", n, got, intact)
	fmt.Printf("switch counters: %s\n", swd.Counters().String())
	fmt.Println("\nevery payload was parked in switch register cells while its header")
	fmt.Println("crossed real UDP sockets to the NF server and back.")
}
