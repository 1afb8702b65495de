package nf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/payloadpark/payloadpark/internal/packet"
)

var (
	srcMAC  = packet.MAC{2, 0, 0, 0, 0, 1}
	dstMAC  = packet.MAC{2, 0, 0, 0, 0, 2}
	sinkMAC = packet.MAC{2, 0, 0, 0, 0, 3}
)

func pktFrom(src packet.IPv4Addr, srcPort uint16, size int) *packet.Packet {
	ft := packet.FiveTuple{
		SrcIP: src, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: srcPort, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	return packet.NewBuilder(srcMAC, dstMAC).UDP(ft, size, 1)
}

func TestFirewallAcceptAndDrop(t *testing.T) {
	fw := NewFirewall([]FirewallRule{
		{Prefix: packet.IPv4Addr{10, 9, 0, 0}, Bits: 16},
		{Prefix: packet.IPv4Addr{10, 10, 0, 0}, Bits: 16},
	})
	v, cy := fw.Process(pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 100))
	if v != Forward {
		t.Error("clean packet dropped")
	}
	// Accepted packets probe every rule.
	if want := uint64(firewallBaseCycles + 2*firewallPerRuleCycles); cy != want {
		t.Errorf("accept cycles = %d, want %d", cy, want)
	}
	v, cy = fw.Process(pktFrom(packet.IPv4Addr{10, 9, 4, 4}, 5000, 100))
	if v != Drop {
		t.Error("blacklisted packet forwarded")
	}
	if want := uint64(firewallBaseCycles + 1*firewallPerRuleCycles); cy != want {
		t.Errorf("drop cycles = %d, want %d (first-rule hit)", cy, want)
	}
	if fw.Dropped() != 1 {
		t.Errorf("dropped=%d", fw.Dropped())
	}
	if fw.NumRules() != 2 {
		t.Errorf("rules = %d", fw.NumRules())
	}
	if fw.String() == "" {
		t.Error("empty String")
	}
}

func TestFirewallZeroBitsMatchesAll(t *testing.T) {
	fw := NewFirewall([]FirewallRule{{Bits: 0}})
	if v, _ := fw.Process(pktFrom(packet.IPv4Addr{172, 16, 0, 1}, 1, 100)); v != Drop {
		t.Error("0-bit rule must match everything")
	}
}

func TestBlacklistFractionApproximation(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		want int // expected prefix bits
	}{
		{0.5, 9}, {0.25, 10}, {0.125, 11}, {0.05, 13}, {0.0, -1},
	} {
		rules := BlacklistFraction(tc.frac)
		if tc.want < 0 {
			if len(rules) != 0 {
				t.Errorf("fraction 0 produced rules")
			}
			continue
		}
		if len(rules) != 1 || rules[0].Bits != tc.want {
			t.Errorf("fraction %v -> %+v, want /%d", tc.frac, rules, tc.want)
		}
	}
}

func TestBlacklistFractionEmpiricalRate(t *testing.T) {
	// Uniform traffic in 10.0.0.0/8 should be dropped at ~the requested rate.
	rules := BlacklistFraction(0.25)
	fw := NewFirewall(rules)
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	for i := 0; i < n; i++ {
		ip := packet.IPv4Addr{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		fw.Process(pktFrom(ip, uint16(i), 100))
	}
	rate := float64(fw.Dropped()) / n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("empirical drop rate = %.3f, want ~0.25", rate)
	}
}

func TestNATRewritesAndRemembersFlows(t *testing.T) {
	ext := packet.IPv4Addr{198, 51, 100, 1}
	nat := NewNAT(ext)
	p1 := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 200)
	origDst := p1.DstPort()

	v, cyMiss := nat.Process(p1)
	if v != Forward {
		t.Fatal("NAT dropped packet")
	}
	if p1.IP.Src != ext {
		t.Errorf("src IP = %v, want %v", p1.IP.Src, ext)
	}
	if p1.DstPort() != origDst {
		t.Error("NAT touched dst port")
	}
	if !p1.IP.ChecksumValid() {
		t.Error("IP checksum broken by NAT")
	}
	extPort := p1.SrcPort()

	// Same flow again: same mapping, cheaper (hit).
	p2 := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 200)
	_, cyHit := nat.Process(p2)
	if p2.SrcPort() != extPort {
		t.Error("same flow mapped to different port")
	}
	if cyHit >= cyMiss {
		t.Errorf("hit cycles %d >= miss cycles %d", cyHit, cyMiss)
	}

	// Different flow: different port.
	p3 := pktFrom(packet.IPv4Addr{10, 0, 0, 2}, 5000, 200)
	nat.Process(p3)
	if p3.SrcPort() == extPort {
		t.Error("distinct flows share a port")
	}
	if nat.Flows() != 2 {
		t.Errorf("flows = %d, want 2", nat.Flows())
	}

	// Reverse lookup recovers the original tuple.
	ft, ok := nat.ReverseLookup(extPort)
	if !ok || ft.SrcIP != (packet.IPv4Addr{10, 0, 0, 1}) || ft.SrcPort != 5000 {
		t.Errorf("reverse lookup = %v %v", ft, ok)
	}
	if _, ok := nat.ReverseLookup(9); ok {
		t.Error("bogus reverse lookup succeeded")
	}
}

func TestLoadBalancerConsistentAndBalanced(t *testing.T) {
	backends := map[string]packet.IPv4Addr{
		"b0": {10, 2, 0, 0}, "b1": {10, 2, 0, 1}, "b2": {10, 2, 0, 2}, "b3": {10, 2, 0, 3},
	}
	lb, err := NewLoadBalancer(backends)
	if err != nil {
		t.Fatal(err)
	}
	// Same flow always lands on the same backend.
	p1 := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 100)
	lb.Process(p1)
	first := p1.IP.Dst
	for i := 0; i < 10; i++ {
		p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 100)
		lb.Process(p)
		if p.IP.Dst != first {
			t.Fatal("flow remapped across packets")
		}
	}
	// Many flows spread across backends.
	rng := rand.New(rand.NewSource(7))
	counts := map[packet.IPv4Addr]int{} // by the backend address written
	for i := 0; i < 4000; i++ {
		p := pktFrom(packet.IPv4Addr{10, byte(rng.Intn(255)), byte(rng.Intn(255)), byte(rng.Intn(255))}, uint16(1000+rng.Intn(50000)), 100)
		lb.Process(p)
		counts[p.IP.Dst]++
	}
	if len(counts) != 4 {
		t.Fatalf("backends hit = %d, want 4", len(counts))
	}
	for _, addr := range backends {
		if c := counts[addr]; c < 500 {
			t.Errorf("backend %v starved: %d packets", addr, c)
		}
	}
}

func TestLoadBalancerNoBackends(t *testing.T) {
	if _, err := NewLoadBalancer(nil); err == nil {
		t.Error("empty backend set accepted")
	}
}

func TestMACSwap(t *testing.T) {
	p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 100)
	v, cy := MACSwap{}.Process(p)
	if v != Forward || cy == 0 {
		t.Error("bad verdict/cycles")
	}
	if p.Eth.Src != dstMAC || p.Eth.Dst != srcMAC {
		t.Error("MACs not swapped")
	}
}

func TestSyntheticCosts(t *testing.T) {
	heavy := NewSynthetic("NF-Heavy", 570)
	if heavy.Cycles() != 570 {
		t.Errorf("cycles = %d, want 570", heavy.Cycles())
	}
	p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 100)
	v, cy := heavy.Process(p)
	if v != Forward || cy != 570 {
		t.Errorf("verdict=%v cycles=%d", v, cy)
	}
	if heavy.Name() != "NF-Heavy" {
		t.Errorf("name = %s", heavy.Name())
	}
}

func TestChainProcessingAndCosts(t *testing.T) {
	fw := NewFirewall(BlacklistFraction(0.5))
	nat := NewNAT(packet.IPv4Addr{198, 51, 100, 1})
	lb, _ := NewLoadBalancer(map[string]packet.IPv4Addr{"b0": {10, 2, 0, 0}, "b1": {10, 2, 0, 1}})
	chain := NewChain(fw, nat, lb)

	if chain.Name() != "FW->NAT->LB" {
		t.Errorf("name = %s", chain.Name())
	}
	if chain.Len() != 3 {
		t.Errorf("len = %d", chain.Len())
	}

	// 10.128.x.x is outside the /9 blacklist: forwarded through all stages.
	p := pktFrom(packet.IPv4Addr{10, 200, 0, 1}, 5000, 100)
	v, costs := chain.Process(p)
	if v != Forward || len(costs) != 3 {
		t.Fatalf("verdict=%v stages=%d", v, len(costs))
	}
	for _, c := range costs {
		if c.Cycles == 0 {
			t.Errorf("stage %s charged no cycles", c.Name)
		}
	}

	// Blacklisted packet stops at the firewall: one stage charged.
	p2 := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 100)
	v, costs = chain.Process(p2)
	if v != Drop || len(costs) != 1 {
		t.Fatalf("drop verdict=%v stages=%d, want Drop/1", v, len(costs))
	}
}

// TestHandleAllocFree: the verdict's Costs alias the server's own buffer,
// so Handle allocates nothing once the NAT has learned the flow — and the
// next Handle overwrites them, which is the documented lifetime.
func TestHandleAllocFree(t *testing.T) {
	lb, _ := NewLoadBalancer(map[string]packet.IPv4Addr{"b0": {10, 2, 0, 0}, "b1": {10, 2, 0, 1}})
	fw := NewFirewall([]FirewallRule{{Prefix: packet.IPv4Addr{10, 0, 0, 0}, Bits: 9}})
	srv := NewServer(ServerConfig{Chain: NewChain(fw, NewNAT(packet.IPv4Addr{198, 51, 100, 1}), lb)})
	fwd := pktFrom(packet.IPv4Addr{10, 200, 0, 1}, 5000, 100)
	blocked := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 100)
	first := srv.Handle(fwd)
	if first.Out != fwd || len(first.Costs) != 3 {
		t.Fatalf("forwarded verdict: out=%v stages=%d", first.Out, len(first.Costs))
	}
	if res := srv.Handle(blocked); res.Out != nil || len(res.Costs) != 1 || &res.Costs[0] != &first.Costs[0] {
		t.Fatalf("dropped verdict: out=%v stages=%d; want one stage in the same buffer", res.Out, len(res.Costs))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		srv.Handle(fwd)
		srv.Handle(blocked)
	}); allocs != 0 {
		t.Errorf("Handle allocates %.1f per two packets, want 0", allocs)
	}
}

// TestHandleFrameNotifiesAtBoundary: on the wire the framework is
// PayloadPark-unaware — a forwarded frame keeps the header's bytes as
// payload — and only a drop makes it read the header, behind the visible
// prefix of the decoupling boundary. A packet that parked a payload comes
// back as prefix + header with the opcode flipped, addressed to the next
// hop; one whose header parked nothing, or a frame too short to hold one,
// is consumed.
func TestHandleFrameNotifiesAtBoundary(t *testing.T) {
	tag := packet.Tag{TableIndex: 3, Clock: 9}.Seal()
	for _, boundary := range []int{0, 32} {
		split := func(h packet.PPHeader) []byte {
			p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 400)
			p.SetPP(h)
			p.PPOffset = boundary
			return p.Serialize()
		}
		frame := split(packet.PPHeader{Enabled: true, Tag: tag})
		cfg := ServerConfig{ExplicitDrop: true, Boundary: boundary, NFMAC: dstMAC, NextHopMAC: sinkMAC}

		cfg.Chain = NewChain(MACSwap{})
		out, res, err := NewServer(cfg).HandleFrame(frame, nil)
		swapped := append(append(frame[6:12:12], frame[:6]...), frame[12:]...)
		if err != nil || res.Out == nil || res.Notification || !bytes.Equal(out, swapped) {
			t.Fatalf("boundary %d: forwarded frame = %x, %+v, %v; want the input with its MACs swapped", boundary, out, res, err)
		}

		cfg.Chain = NewChain(NewFirewall([]FirewallRule{{Bits: 0}}))
		srv := NewServer(cfg)
		out, res, err = srv.HandleFrame(frame, nil)
		if err != nil || !res.Notification {
			t.Fatalf("boundary %d: dropped frame = %+v, %v; want a notification", boundary, res, err)
		}
		n, err := packet.ParseAt(out, boundary)
		if err != nil || len(out) != packet.HeaderUnitLen+boundary+packet.PPHeaderLen {
			t.Fatalf("boundary %d: notification %x does not end with the header at the boundary: %v", boundary, out, err)
		}
		if n.PP.Op != packet.PPOpExplicitDrop || n.PP.Tag != tag || !bytes.Equal(n.Payload, frame[packet.HeaderUnitLen:][:boundary]) || n.Eth.Dst != sinkMAC {
			t.Errorf("boundary %d: notification %v with payload %x; want the flipped tag behind the visible prefix, to the next hop", boundary, n, n.Payload)
		}
		for _, consumed := range [][]byte{split(packet.PPHeader{}), frame[:packet.HeaderUnitLen+boundary+packet.PPHeaderLen-1]} {
			if out, res, err := srv.HandleFrame(consumed, nil); err != nil || res.Out != nil || len(out) != 0 {
				t.Errorf("boundary %d: frame of %d B without a parked payload answered %x", boundary, len(consumed), out)
			}
		}
		if srv.Rx.Value() != 3 || srv.Notifications.Value() != 1 || srv.Dropped.Value() != 2 {
			t.Errorf("boundary %d: rx=%d notifications=%d dropped=%d", boundary, srv.Rx.Value(), srv.Notifications.Value(), srv.Dropped.Value())
		}
	}
	if _, _, err := NewServer(ServerConfig{Chain: NewChain()}).HandleFrame([]byte{1, 2, 3}, nil); err == nil {
		t.Error("garbage frame parsed")
	}
}

// TestHandleFrameAllocFree: the socket daemon's per-frame work — parse into
// the server's scratch, run the chain, append the response to a reused
// buffer — allocates nothing once warm, forwarded or notified.
func TestHandleFrameAllocFree(t *testing.T) {
	fw := NewFirewall([]FirewallRule{{Prefix: packet.IPv4Addr{10, 0, 0, 0}, Bits: 9}})
	srv := NewServer(ServerConfig{Chain: NewChain(fw, MACSwap{}), ExplicitDrop: true})
	frame := func(src packet.IPv4Addr) []byte {
		p := pktFrom(src, 5000, 500)
		p.SetPP(packet.PPHeader{Enabled: true, Tag: packet.Tag{TableIndex: 1, Clock: 2}.Seal()})
		return p.Serialize()
	}
	fwd, blocked := frame(packet.IPv4Addr{10, 200, 0, 1}), frame(packet.IPv4Addr{10, 0, 0, 1})
	var dst []byte
	round := func() {
		if dst, _, _ = srv.HandleFrame(fwd, dst[:0]); len(dst) != len(fwd) {
			t.Fatal("forwarded frame lost")
		}
		if dst, _, _ = srv.HandleFrame(blocked, dst[:0]); len(dst) != packet.HeaderUnitLen+packet.PPHeaderLen {
			t.Fatal("notification lost")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("HandleFrame allocates %.1f per two frames, want 0", allocs)
	}
}

func TestEmptyChain(t *testing.T) {
	c := NewChain()
	if c.Name() != "empty" {
		t.Errorf("name = %s", c.Name())
	}
	v, costs := c.Process(pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 100))
	if v != Forward || len(costs) != 0 {
		t.Error("empty chain should forward with no cost")
	}
}

func TestServerForwardRewritesMACs(t *testing.T) {
	srv := NewServer(ServerConfig{
		Chain:       NewChain(NewNAT(packet.IPv4Addr{198, 51, 100, 1})),
		RewriteMACs: true,
		NFMAC:       dstMAC,
		NextHopMAC:  sinkMAC,
	})
	p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 5000, 100)
	res := srv.Handle(p)
	if res.Out == nil || res.Notification {
		t.Fatal("forwarded packet missing")
	}
	if res.Out.Eth.Src != dstMAC || res.Out.Eth.Dst != sinkMAC {
		t.Error("MACs not rewritten toward next hop")
	}
	if srv.Rx.Value() != 1 || srv.Tx.Value() != 1 {
		t.Errorf("rx=%d tx=%d", srv.Rx.Value(), srv.Tx.Value())
	}
}

func TestServerSilentDrop(t *testing.T) {
	srv := NewServer(ServerConfig{Chain: NewChain(NewFirewall([]FirewallRule{{Bits: 0}}))})
	p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 100)
	p.PP = &packet.PPHeader{Enabled: true, Tag: packet.Tag{TableIndex: 3, Clock: 9}.Seal()}
	res := srv.Handle(p)
	if res.Out != nil {
		t.Fatal("dropped packet emitted without explicit-drop mode")
	}
	if srv.Dropped.Value() != 1 || srv.Notifications.Value() != 0 {
		t.Errorf("dropped=%d notif=%d", srv.Dropped.Value(), srv.Notifications.Value())
	}
}

func TestServerExplicitDropNotification(t *testing.T) {
	srv := NewServer(ServerConfig{
		Chain:        NewChain(NewFirewall([]FirewallRule{{Bits: 0}})),
		ExplicitDrop: true,
		RewriteMACs:  false,
		NFMAC:        dstMAC,
		NextHopMAC:   sinkMAC,
	})
	p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 400)
	tag := packet.Tag{TableIndex: 3, Clock: 9}.Seal()
	p.PP = &packet.PPHeader{Enabled: true, Tag: tag}
	res := srv.Handle(p)
	if res.Out == nil || !res.Notification {
		t.Fatal("explicit drop notification missing")
	}
	if res.Out.PP.Op != packet.PPOpExplicitDrop {
		t.Error("opcode not flipped")
	}
	if res.Out.PP.Tag != tag {
		t.Error("tag altered — switch could not validate it")
	}
	if len(res.Out.Payload) != 0 {
		t.Error("notification payload not truncated")
	}
	if srv.Notifications.Value() != 1 {
		t.Errorf("notifications = %d", srv.Notifications.Value())
	}
}

func TestServerExplicitDropWithoutParkedPayload(t *testing.T) {
	// Dropped packets with ENB=0 (or no PP header) yield no notification:
	// there is nothing to reclaim.
	srv := NewServer(ServerConfig{
		Chain:        NewChain(NewFirewall([]FirewallRule{{Bits: 0}})),
		ExplicitDrop: true,
	})
	p := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 100)
	p.PP = &packet.PPHeader{Enabled: false}
	if res := srv.Handle(p); res.Out != nil {
		t.Error("notification sent for ENB=0 packet")
	}
	p2 := pktFrom(packet.IPv4Addr{10, 0, 0, 1}, 1, 100)
	if res := srv.Handle(p2); res.Out != nil {
		t.Error("notification sent for packet without PP header")
	}
}

// TestNATPropertyDistinctFlowsDistinctPorts is a property test: any set of
// distinct flows gets distinct external ports.
func TestNATPropertyDistinctFlowsDistinctPorts(t *testing.T) {
	nat := NewNAT(packet.IPv4Addr{198, 51, 100, 1})
	seen := make(map[uint16]packet.FiveTuple)
	f := func(a, b uint16, c byte) bool {
		p := pktFrom(packet.IPv4Addr{10, 0, c, byte(a)}, b, 100)
		orig := p.FiveTuple()
		nat.Process(p)
		got := p.SrcPort()
		if prev, dup := seen[got]; dup {
			return prev == orig // same port only if same original flow
		}
		seen[got] = orig
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkChainFWNATLB(b *testing.B) {
	fw := NewFirewall(BlacklistFraction(0.01))
	nat := NewNAT(packet.IPv4Addr{198, 51, 100, 1})
	lb, _ := NewLoadBalancer(map[string]packet.IPv4Addr{"b0": {10, 2, 0, 0}, "b1": {10, 2, 0, 1}})
	chain := NewChain(fw, nat, lb)
	p := pktFrom(packet.IPv4Addr{10, 200, 0, 1}, 5000, 882)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chain.Process(p)
	}
}
