package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

var (
	genMAC  = packet.MAC{2, 0, 0, 0, 0, 0x01}
	nfMAC   = packet.MAC{2, 0, 0, 0, 0, 0x02}
	sinkMAC = packet.MAC{2, 0, 0, 0, 0, 0x03}
	flow    = packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5001, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
)

const (
	portGen  = rmt.PortID(0) // split port
	portNF   = rmt.PortID(1) // merge port
	portSink = rmt.PortID(2)
)

// testbed wires the canonical single-server topology: generator on port 0,
// NF server on port 1, sink on port 2, all on pipe 0.
func testbed(t testing.TB, cfg Config, recircPipe int) (*Switch, *Program) {
	t.Helper()
	sw := NewSwitch("test")
	sw.AddL2Route(nfMAC, portNF)
	sw.AddL2Route(sinkMAC, portSink)
	prog, err := sw.AttachPayloadPark(cfg, recircPipe)
	if err != nil {
		t.Fatalf("AttachPayloadPark: %v", err)
	}
	return sw, prog
}

// injectTraced runs one packet through sw as a batch of one, returning its
// emission, or nil and the drop reason.
func injectTraced(sw *Switch, pkt *packet.Packet, in rmt.PortID) (*Emission, string) {
	res := make([]BatchResult, 1)
	sw.InjectBatch([]BatchPacket{{Pkt: pkt, In: in}}, res)
	if !res[0].OK {
		return nil, res[0].Reason
	}
	return &res[0].Em, ""
}

func inject(sw *Switch, pkt *packet.Packet, in rmt.PortID) *Emission {
	em, _ := injectTraced(sw, pkt, in)
	return em
}

// injectFrame runs one raw frame through sw on a one-slot FrameBurst,
// returning the emitted bytes (nil, nil, nil when the switch dropped it).
func injectFrame(sw *Switch, frame []byte, in rmt.PortID) ([]byte, *Emission, error) {
	b := sw.NewFrameBurst(1)
	if err := b.Add(frame, in); err != nil {
		return nil, nil, err
	}
	r := &b.Run()[0]
	if !r.OK {
		return nil, nil, nil
	}
	return r.Em.Pkt.Serialize(), &r.Em, nil
}

func defaultCfg() Config {
	return Config{Slots: 64, MaxExpiry: 1, SplitPort: portGen, MergePort: portNF}
}

// mkPkt builds a generator packet destined for the NF server.
func mkPkt(size int, id uint16) *packet.Packet {
	p := packet.NewBuilder(genMAC, nfMAC).UDP(flow, size, id)
	return p
}

// toSink rewrites the MACs the way the NF server does before returning a
// packet to the switch.
func toSink(p *packet.Packet) *packet.Packet {
	p.Eth.Src = nfMAC
	p.Eth.Dst = sinkMAC
	return p
}

func TestSplitParksPayload(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	orig := mkPkt(512, 1)
	want := orig.Clone()

	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("split packet dropped")
	}
	if em.Port != portNF {
		t.Errorf("egress port = %d, want %d", em.Port, portNF)
	}
	pkt := em.Pkt
	if pkt.PP == nil || !pkt.PP.Enabled {
		t.Fatal("split packet missing enabled PP header")
	}
	if pkt.PP.Op != packet.PPOpMerge {
		t.Errorf("op = %d, want Merge", pkt.PP.Op)
	}
	if !pkt.PP.Tag.Valid() {
		t.Error("tag CRC invalid")
	}
	wantLen := want.Len() - BaseParkBytes + packet.PPHeaderLen
	if pkt.Len() != wantLen {
		t.Errorf("split wire length = %d, want %d", pkt.Len(), wantLen)
	}
	if !bytes.Equal(pkt.Payload, want.Payload[BaseParkBytes:]) {
		t.Error("remaining payload is not the original suffix")
	}
	if prog.C.Splits.Value() != 1 {
		t.Errorf("splits = %d, want 1", prog.C.Splits.Value())
	}
	if prog.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", prog.Occupancy())
	}
}

func TestSplitMergeRoundTripIsIdentity(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	orig := mkPkt(882, 7)
	want := orig.Clone()

	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("split dropped")
	}
	em2 := inject(sw, toSink(em.Pkt), portNF)
	if em2 == nil {
		t.Fatal("merge dropped")
	}
	got := em2.Pkt
	if got.PP != nil {
		t.Error("merged packet still carries PP header")
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Error("payload not restored byte-for-byte")
	}
	if got.Len() != want.Len() {
		t.Errorf("merged length = %d, want %d", got.Len(), want.Len())
	}
	if em2.Port != portSink {
		t.Errorf("merged egress = %d, want sink", em2.Port)
	}
	if prog.C.Merges.Value() != 1 {
		t.Errorf("merges = %d, want 1", prog.C.Merges.Value())
	}
	if prog.Occupancy() != 0 {
		t.Errorf("occupancy after merge = %d, want 0", prog.Occupancy())
	}
}

func TestSmallPayloadGetsDisabledHeader(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	orig := mkPkt(42+100, 2) // 100 B payload < 160
	want := orig.Clone()

	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("small packet dropped")
	}
	pkt := em.Pkt
	if pkt.PP == nil || pkt.PP.Enabled {
		t.Fatal("small packet must carry a zeroed PP header (ENB=0)")
	}
	if (pkt.PP.Tag != packet.Tag{}) {
		t.Error("disabled header should be all-zero")
	}
	if !bytes.Equal(pkt.Payload, want.Payload) {
		t.Error("small payload must be untouched")
	}
	if pkt.Len() != want.Len()+packet.PPHeaderLen {
		t.Errorf("small packet grew by %d, want %d", pkt.Len()-want.Len(), packet.PPHeaderLen)
	}
	if prog.C.SmallPayloadSkips.Value() != 1 {
		t.Errorf("smallSkips = %d, want 1", prog.C.SmallPayloadSkips.Value())
	}

	// The NF returns it; the switch strips the disabled header.
	em2 := inject(sw, toSink(em.Pkt), portNF)
	if em2 == nil {
		t.Fatal("ENB=0 return dropped")
	}
	if em2.Pkt.PP != nil {
		t.Error("disabled PP header not stripped on return")
	}
	if !bytes.Equal(em2.Pkt.Payload, want.Payload) {
		t.Error("payload altered through ENB=0 round trip")
	}
	if prog.C.SplitDisabledFromNF.Value() != 1 {
		t.Errorf("enb0FromNF = %d, want 1", prog.C.SplitDisabledFromNF.Value())
	}
}

func TestTableFullDisablesSplit(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 4
	cfg.MaxExpiry = 10 // conservative: no immediate eviction
	sw, prog := testbed(t, cfg, -1)

	for i := 0; i < 4; i++ {
		if em := inject(sw, mkPkt(512, uint16(i)), portGen); em == nil || !em.Pkt.PP.Enabled {
			t.Fatalf("packet %d should have split", i)
		}
	}
	// Fifth packet probes an occupied slot (EXP 10 -> 9): Split disabled.
	orig := mkPkt(512, 99)
	want := orig.Clone()
	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("overflow packet dropped")
	}
	if em.Pkt.PP == nil || em.Pkt.PP.Enabled {
		t.Fatal("overflow packet should carry ENB=0")
	}
	if !bytes.Equal(em.Pkt.Payload, want.Payload) {
		t.Error("overflow packet payload must be intact")
	}
	if prog.C.OccupiedSkips.Value() != 1 {
		t.Errorf("occupiedSkips = %d, want 1", prog.C.OccupiedSkips.Value())
	}
	if prog.C.Splits.Value() != 4 {
		t.Errorf("splits = %d, want 4", prog.C.Splits.Value())
	}
}

func TestEvictionAndPrematureEvictionDetection(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 4
	cfg.MaxExpiry = 1 // aggressive: evict after one full index wrap
	sw, prog := testbed(t, cfg, -1)

	// Fill all four slots.
	first := inject(sw, mkPkt(512, 0), portGen)
	var rest []*Emission
	for i := 1; i < 4; i++ {
		rest = append(rest, inject(sw, mkPkt(512, uint16(i)), portGen))
	}
	// Fifth split wraps to the first slot: EXP 1 -> 0 evicts packet 0's
	// payload and claims the slot in the same operation (Alg. 1).
	fifth := inject(sw, mkPkt(512, 4), portGen)
	if fifth == nil || !fifth.Pkt.PP.Enabled {
		t.Fatal("fifth packet should evict and claim")
	}
	if prog.C.Evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", prog.C.Evictions.Value())
	}

	// Packet 0 returns: its payload is gone -> premature eviction, drop.
	if em := inject(sw, toSink(first.Pkt), portNF); em != nil {
		t.Fatal("prematurely evicted packet must be dropped")
	}
	if prog.C.PrematureEvictions.Value() != 1 {
		t.Errorf("premature = %d, want 1", prog.C.PrematureEvictions.Value())
	}
	if sw.Drops()[DropPrematureEviction] != 1 {
		t.Errorf("drop reason accounting = %v", sw.Drops())
	}

	// The fifth packet merges fine — its generation matches.
	if em := inject(sw, toSink(fifth.Pkt), portNF); em == nil {
		t.Fatal("fifth packet should merge")
	}
	// The untouched middle packets also merge.
	for i, em := range rest {
		if m := inject(sw, toSink(em.Pkt), portNF); m == nil {
			t.Fatalf("packet %d failed to merge", i+1)
		}
	}
}

func TestExplicitDropReclaimsSlot(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	em := inject(sw, mkPkt(512, 1), portGen)
	if em == nil || !em.Pkt.PP.Enabled {
		t.Fatal("split failed")
	}
	if prog.Occupancy() != 1 {
		t.Fatal("slot not occupied after split")
	}
	// The NF framework drops the packet and notifies the switch (§6.2.4):
	// truncate payload, flip the opcode, send back.
	notif := em.Pkt
	notif.PP.Op = packet.PPOpExplicitDrop
	notif.Payload = nil
	toSink(notif)
	if out := inject(sw, notif, portNF); out != nil {
		t.Fatal("explicit drop notification must be consumed")
	}
	if prog.C.ExplicitDrops.Value() != 1 {
		t.Errorf("explicitDrops = %d, want 1", prog.C.ExplicitDrops.Value())
	}
	if prog.Occupancy() != 0 {
		t.Errorf("occupancy = %d, want 0 after explicit drop", prog.Occupancy())
	}
	if sw.Drops()[DropExplicitDrop] != 1 {
		t.Errorf("drops = %v", sw.Drops())
	}
}

func TestStaleExplicitDrop(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 2
	cfg.MaxExpiry = 1
	sw, prog := testbed(t, cfg, -1)

	first := inject(sw, mkPkt(512, 0), portGen)
	inject(sw, mkPkt(512, 1), portGen)
	inject(sw, mkPkt(512, 2), portGen) // wraps, evicts first

	notif := first.Pkt
	notif.PP.Op = packet.PPOpExplicitDrop
	toSink(notif)
	if out := inject(sw, notif, portNF); out != nil {
		t.Fatal("stale explicit drop must be consumed")
	}
	if prog.C.StaleExplicitDrops.Value() != 1 {
		t.Errorf("staleExplicit = %d, want 1", prog.C.StaleExplicitDrops.Value())
	}
	if prog.C.ExplicitDrops.Value() != 0 {
		t.Errorf("explicitDrops = %d, want 0", prog.C.ExplicitDrops.Value())
	}
}

func TestBadTagCRCDropped(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	em := inject(sw, mkPkt(512, 1), portGen)
	em.Pkt.PP.Tag.CRC ^= 0xbeef
	toSink(em.Pkt)
	if out := inject(sw, em.Pkt, portNF); out != nil {
		t.Fatal("corrupted tag must be dropped")
	}
	if prog.C.BadTagDrops.Value() != 1 {
		t.Errorf("badTag = %d, want 1", prog.C.BadTagDrops.Value())
	}
	// The slot is still occupied — the corrupt packet couldn't touch it.
	if prog.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", prog.Occupancy())
	}
}

func TestMergeTransparentToNATRewrites(t *testing.T) {
	sw, _ := testbed(t, defaultCfg(), -1)
	orig := mkPkt(882, 3)
	origPayload := append([]byte(nil), orig.Payload...)

	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("split dropped")
	}
	// NAT rewrites source IP and port on the truncated packet.
	natIP := packet.IPv4Addr{192, 0, 2, 1}
	em.Pkt.SetSrcIP(natIP)
	em.Pkt.SetPorts(61000, em.Pkt.DstPort())
	toSink(em.Pkt)

	em2 := inject(sw, em.Pkt, portNF)
	if em2 == nil {
		t.Fatal("merge dropped after NAT rewrite")
	}
	got := em2.Pkt
	if got.IP.Src != natIP || got.SrcPort() != 61000 {
		t.Error("NAT rewrites lost through merge")
	}
	if !bytes.Equal(got.Payload, origPayload) {
		t.Error("payload corrupted by NAT+merge")
	}
	if !got.IP.ChecksumValid() {
		t.Error("IP checksum invalid after NAT+merge")
	}
}

func TestRecirculationParks384(t *testing.T) {
	cfg := defaultCfg()
	cfg.Recirculate = true
	sw, prog := testbed(t, cfg, 1)
	if prog.Config().ParkBytes() != RecircParkBytes {
		t.Fatalf("park bytes = %d, want %d", prog.Config().ParkBytes(), RecircParkBytes)
	}

	orig := mkPkt(1024, 5)
	want := orig.Clone()
	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("recirc split dropped")
	}
	if em.Passes != 2 {
		t.Errorf("split passes = %d, want 2", em.Passes)
	}
	wantLen := want.Len() - RecircParkBytes + packet.PPHeaderLen
	if em.Pkt.Len() != wantLen {
		t.Errorf("split length = %d, want %d", em.Pkt.Len(), wantLen)
	}
	if em.LatencyNs <= rmt.PipeLatencyNs {
		t.Errorf("recirculated latency = %d, want > %d", em.LatencyNs, rmt.PipeLatencyNs)
	}

	em2 := inject(sw, toSink(em.Pkt), portNF)
	if em2 == nil {
		t.Fatal("recirc merge dropped")
	}
	if em2.Passes != 2 {
		t.Errorf("merge passes = %d, want 2", em2.Passes)
	}
	if !bytes.Equal(em2.Pkt.Payload, want.Payload) {
		t.Error("payload not restored through recirculation")
	}
}

func TestRecirculationRaisesMinPayload(t *testing.T) {
	cfg := defaultCfg()
	cfg.Recirculate = true
	sw, prog := testbed(t, cfg, 1)

	// 200 B payload: enough for 160 but not for 384 -> ENB=0 (§6.3.3).
	em := inject(sw, mkPkt(42+200, 1), portGen)
	if em == nil || em.Pkt.PP == nil || em.Pkt.PP.Enabled {
		t.Fatal("sub-384B payload must not split in recirculation mode")
	}
	if em.Passes != 1 {
		t.Errorf("ENB=0 packet recirculated: passes = %d", em.Passes)
	}
	if prog.C.SmallPayloadSkips.Value() != 1 {
		t.Errorf("smallSkips = %d, want 1", prog.C.SmallPayloadSkips.Value())
	}
}

func TestUnknownMACDropped(t *testing.T) {
	sw := NewSwitch("t")
	// no routes at all
	if em := inject(sw, mkPkt(100, 1), portGen); em != nil {
		t.Fatal("packet with unknown dst MAC must drop")
	}
	if sw.Drops()[DropUnknownMAC] != 1 {
		t.Errorf("drops = %v", sw.Drops())
	}
	if sw.TotalDrops() != 1 {
		t.Errorf("total drops = %d", sw.TotalDrops())
	}
}

func TestBaselineSwitchPureL2(t *testing.T) {
	sw := NewSwitch("baseline")
	sw.AddL2Route(nfMAC, portNF)
	orig := mkPkt(882, 1)
	want := orig.Clone()
	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("baseline forward dropped")
	}
	if em.Pkt.PP != nil {
		t.Error("baseline switch added a PP header")
	}
	if !bytes.Equal(em.Pkt.Serialize(), want.Serialize()) {
		t.Error("baseline switch modified the packet")
	}
}

func TestInjectFrameBytePath(t *testing.T) {
	sw, _ := testbed(t, defaultCfg(), -1)
	orig := mkPkt(512, 1)
	want := orig.Clone()

	splitFrame, em, err := injectFrame(sw, orig.Serialize(), portGen)
	if err != nil || em == nil {
		t.Fatalf("split frame: %v", err)
	}
	// Return path: parse as the NF would (it never parses PP), flip MACs
	// at the byte level, and reinject on the merge port.
	ret, err := packet.ParseAt(splitFrame, 0)
	if err != nil {
		t.Fatalf("parse split frame: %v", err)
	}
	toSink(ret)
	mergedFrame, em2, err := injectFrame(sw, ret.Serialize(), portNF)
	if err != nil || em2 == nil {
		t.Fatalf("merge frame: %v", err)
	}
	merged, err := packet.ParseAt(mergedFrame, -1)
	if err != nil {
		t.Fatalf("parse merged frame: %v", err)
	}
	if !bytes.Equal(merged.Payload, want.Payload) {
		t.Error("byte path did not restore payload")
	}

	if _, _, err := injectFrame(sw, []byte{1, 2, 3}, portGen); err == nil {
		t.Error("garbage frame should error")
	}
}

func TestTwoProgramsShareOnePipe(t *testing.T) {
	// The 8-server experiment slices one pipe's memory between two NF
	// servers (§6.2.3): two programs, two port pairs, one pipe.
	sw := NewSwitch("multi")
	sw.AddL2Route(nfMAC, portNF)
	sw.AddL2Route(sinkMAC, portSink)
	nf2MAC := packet.MAC{2, 0, 0, 0, 0, 0x22}
	sw.AddL2Route(nf2MAC, 5)

	cfgA := Config{Slots: 32, MaxExpiry: 1, SplitPort: 0, MergePort: 1}
	cfgB := Config{Slots: 32, MaxExpiry: 1, SplitPort: 4, MergePort: 5}
	progA, err := sw.AttachPayloadPark(cfgA, -1)
	if err != nil {
		t.Fatalf("program A: %v", err)
	}
	progB, err := sw.AttachPayloadPark(cfgB, -1)
	if err != nil {
		t.Fatalf("program B: %v", err)
	}

	emA := inject(sw, mkPkt(512, 1), 0)
	pktB := packet.NewBuilder(genMAC, nf2MAC).UDP(flow, 512, 2)
	emB := inject(sw, pktB, 4)
	if emA == nil || !emA.Pkt.PP.Enabled {
		t.Fatal("program A split failed")
	}
	if emB == nil || !emB.Pkt.PP.Enabled {
		t.Fatal("program B split failed")
	}
	if progA.C.Splits.Value() != 1 || progB.C.Splits.Value() != 1 {
		t.Errorf("splits A=%d B=%d, want 1/1", progA.C.Splits.Value(), progB.C.Splits.Value())
	}
	// Tables are independent.
	if progA.Occupancy() != 1 || progB.Occupancy() != 1 {
		t.Errorf("occupancy A=%d B=%d", progA.Occupancy(), progB.Occupancy())
	}
}

func TestAttachErrors(t *testing.T) {
	sw := NewSwitch("t")
	if _, err := sw.AttachPayloadPark(Config{Slots: 0, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 10, MaxExpiry: 0, SplitPort: 0, MergePort: 1}, -1); err == nil {
		t.Error("zero expiry accepted")
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 3, MergePort: 3}, -1); err == nil {
		t.Error("same split/merge port accepted")
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 0, MergePort: 17}, -1); err == nil {
		t.Error("cross-pipe port pair accepted")
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true}, 0); err == nil {
		t.Error("recirc pipe == ingress pipe accepted")
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true}, 9); err == nil {
		t.Error("out-of-range recirc pipe accepted")
	}
	// Geometry conflict: one program with recirculation, one without, on
	// the same pipe.
	if _, err := sw.AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true}, 1); err != nil {
		t.Fatalf("first attach: %v", err)
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 2, MergePort: 3}, -1); err == nil {
		t.Error("parser geometry conflict accepted")
	}
}

func TestAttachPayloadParkHardwareErrors(t *testing.T) {
	if _, err := NewSwitch("a").AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true}, -1); err == nil {
		t.Error("recirc without pipe accepted")
	}
	if _, err := NewSwitch("b").AttachPayloadPark(Config{Slots: 10, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, 1); err == nil {
		t.Error("recirc pipe without recirc flag accepted")
	}
	// Table too large for per-stage SRAM: 2 payload registers/stage.
	tooBig := rmt.StageSRAMBytes/(2*BlockBytes) + 1
	if tooBig <= MaxSlots {
		if _, err := NewSwitch("c").AttachPayloadPark(Config{Slots: tooBig, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err == nil {
			t.Error("oversized table accepted")
		}
	}
}

func TestConfigTableSRAM(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 1000
	want := 1000*metaCellBytes + 1000*BaseBlocks*BlockBytes
	if got := cfg.TableSRAMBytes(); got != want {
		t.Errorf("TableSRAMBytes = %d, want %d", got, want)
	}
	cfg.Recirculate = true
	want = 1000*metaCellBytes + 1000*(BaseBlocks+RecircBlocks)*BlockBytes
	if got := cfg.TableSRAMBytes(); got != want {
		t.Errorf("recirc TableSRAMBytes = %d, want %d", got, want)
	}
}

func TestResourceReportShape(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 20000
	sw, _ := testbed(t, cfg, -1)
	u := sw.Pipe(0).Resources()
	if u.SRAMAvgPct <= 0 || u.SRAMPeakPct < u.SRAMAvgPct {
		t.Errorf("SRAM pct: avg=%v peak=%v", u.SRAMAvgPct, u.SRAMPeakPct)
	}
	if u.PHVPct <= 0 || u.PHVPct > 100 {
		t.Errorf("PHV pct = %v", u.PHVPct)
	}
	if u.VLIWPct <= 0 || u.TCAMPct <= 0 {
		t.Errorf("VLIW=%v TCAM=%v", u.VLIWPct, u.TCAMPct)
	}
	// Payload stages (2..11) each hold two slot-sized registers.
	wantStage := 2 * cfg.Slots * BlockBytes
	if got := u.SRAMBytesPerStage[5]; got != wantStage {
		t.Errorf("stage 5 SRAM = %d, want %d", got, wantStage)
	}
}

// TestFunctionalEquivalenceProperty is the §6.2.6 experiment as a property
// test: for any payload size and content, a PayloadPark round trip through
// a MAC-swapping NF produces byte-identical packets to the baseline.
func TestFunctionalEquivalenceProperty(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	f := func(extra uint16, id uint16) bool {
		size := 42 + int(extra)%1459 // payload 0..1458
		orig := mkPkt(size, id)
		want := orig.Clone()
		toSink(want) // baseline result: MAC swap only

		em := inject(sw, orig, portGen)
		if em == nil {
			return false
		}
		em2 := inject(sw, toSink(em.Pkt), portNF)
		if em2 == nil {
			return false
		}
		return bytes.Equal(em2.Pkt.Serialize(), want.Serialize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if prog.C.PrematureEvictions.Value() != 0 {
		t.Errorf("premature evictions = %d, want 0", prog.C.PrematureEvictions.Value())
	}
}

// TestFIFOWrapReuse drives more packets than slots in FIFO order and
// verifies the circular-buffer allocation never prematurely evicts when
// merges keep pace (§5 "Implications of ASIC restrictions").
func TestFIFOWrapReuse(t *testing.T) {
	cfg := defaultCfg()
	cfg.Slots = 8
	sw, prog := testbed(t, cfg, -1)

	inFlight := make([]*Emission, 0, 4)
	for i := 0; i < 100; i++ {
		em := inject(sw, mkPkt(512, uint16(i)), portGen)
		if em == nil || !em.Pkt.PP.Enabled {
			t.Fatalf("packet %d failed to split", i)
		}
		inFlight = append(inFlight, em)
		// Merge in FIFO order with at most 4 outstanding (half the table).
		if len(inFlight) == 4 {
			if m := inject(sw, toSink(inFlight[0].Pkt), portNF); m == nil {
				t.Fatalf("merge %d failed", i)
			}
			inFlight = inFlight[1:]
		}
	}
	if prog.C.PrematureEvictions.Value() != 0 {
		t.Errorf("premature evictions = %d in steady FIFO flow", prog.C.PrematureEvictions.Value())
	}
	if prog.C.OccupiedSkips.Value() != 0 {
		t.Errorf("occupied skips = %d in steady FIFO flow", prog.C.OccupiedSkips.Value())
	}
}

func TestCountersString(t *testing.T) {
	var c Counters
	c.Splits.Add(3)
	if c.String() == "" {
		t.Error("empty counters string")
	}
}

func BenchmarkSplit(b *testing.B) {
	cfg := defaultCfg()
	cfg.Slots = 4096
	sw, _ := testbed(b, cfg, -1)
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = mkPkt(882, uint16(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pkts[i%256]
		em := inject(sw, pkt, portGen)
		if em != nil && em.Pkt.PP != nil && em.Pkt.PP.Enabled {
			inject(sw, toSink(em.Pkt), portNF)
		}
		if i%256 == 255 {
			for j := range pkts {
				pkts[j] = mkPkt(882, uint16(j))
			}
			b.StopTimer()
			b.StartTimer()
		}
	}
}

// TestPlainPacketOnMergePort: a packet without a PayloadPark header
// arriving on the merge port (e.g. control traffic from the NF server)
// matches no program rule and is plainly L2-forwarded.
func TestPlainPacketOnMergePort(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	p := mkPkt(300, 1)
	toSink(p)
	want := p.Clone()
	em := inject(sw, p, portNF)
	if em == nil {
		t.Fatal("plain merge-port packet dropped")
	}
	if em.Port != portSink {
		t.Errorf("egress = %d", em.Port)
	}
	if !bytes.Equal(em.Pkt.Serialize(), want.Serialize()) {
		t.Error("plain packet modified on merge port")
	}
	if prog.C.Merges.Value() != 0 || prog.C.SplitDisabledFromNF.Value() != 0 {
		t.Error("program counters touched by plain packet")
	}
}

// TestSplitPortPacketWithForeignPPHeader: a packet arriving on the split
// port already carrying a PP header (e.g. striped from an upstream
// switch) must not be re-split by the small-payload rule into a second
// header; the parser treats it as payload and the program sees it as a
// split-ineligible packet only when the payload is short.
func TestSplitPortHandlesUpstreamHeader(t *testing.T) {
	sw, _ := testbed(t, defaultCfg(), -1)
	p := mkPkt(600, 1)
	// Simulate an upstream split: a PP header is already attached.
	p.PP = &packet.PPHeader{Enabled: true, Tag: packet.Tag{TableIndex: 5, Clock: 6}.Seal()}
	em := inject(sw, p, portGen)
	if em == nil {
		t.Fatal("dropped")
	}
	// The local program must not have overwritten the upstream header.
	if em.Pkt.PP == nil || em.Pkt.PP.Tag.TableIndex != 5 {
		t.Error("upstream PP header clobbered")
	}
}

// TestTCPSplitMergeRoundTrip: the program parks TCP payloads exactly like
// UDP ones (§7: "Our current prototype works with all protocols").
func TestTCPSplitMergeRoundTrip(t *testing.T) {
	sw, prog := testbed(t, defaultCfg(), -1)
	tcpFlow := flow
	tcpFlow.Protocol = packet.IPProtoTCP
	orig := packet.NewBuilder(genMAC, nfMAC).TCP(tcpFlow, 882, 1<<20, 9)
	want := orig.Clone()

	em := inject(sw, orig, portGen)
	if em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Fatal("TCP packet did not split")
	}
	// TCP header is 20 B, so the split packet is 54+7+remaining.
	wantLen := want.Len() - BaseParkBytes + packet.PPHeaderLen
	if em.Pkt.Len() != wantLen {
		t.Errorf("split TCP length = %d, want %d", em.Pkt.Len(), wantLen)
	}
	// A NAT-style port rewrite on the TCP header survives the merge.
	em.Pkt.SetPorts(61001, em.Pkt.DstPort())
	em2 := inject(sw, toSink(em.Pkt), portNF)
	if em2 == nil {
		t.Fatal("TCP merge dropped")
	}
	if !bytes.Equal(em2.Pkt.Payload, want.Payload) {
		t.Error("TCP payload not restored")
	}
	if em2.Pkt.SrcPort() != 61001 {
		t.Error("TCP port rewrite lost")
	}
	if em2.Pkt.TCP.Seq != want.TCP.Seq {
		t.Error("TCP sequence number corrupted")
	}
	if prog.C.Merges.Value() != 1 {
		t.Errorf("merges = %d", prog.C.Merges.Value())
	}
	// Byte-level round trip through the frame path too.
	orig2 := packet.NewBuilder(genMAC, nfMAC).TCP(tcpFlow, 700, 7, 10)
	want2 := orig2.Clone()
	frame, em3, err := injectFrame(sw, orig2.Serialize(), portGen)
	if err != nil || em3 == nil {
		t.Fatalf("TCP frame split: %v", err)
	}
	ret, err := packet.ParseAt(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	toSink(ret)
	out, em4, err := injectFrame(sw, ret.Serialize(), portNF)
	if err != nil || em4 == nil {
		t.Fatalf("TCP frame merge: %v", err)
	}
	got, _ := packet.ParseAt(out, -1)
	if !bytes.Equal(got.Payload, want2.Payload) {
		t.Error("TCP frame path payload mismatch")
	}
}
