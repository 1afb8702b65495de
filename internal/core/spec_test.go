package core

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// attachSpec compiles spec under params and attaches it, as Graph.Realise
// does in two steps.
func attachSpec(sw *Switch, spec *prog.Spec, params map[string]int64, recircPipe int) (*prog.Instance, error) {
	c, err := prog.Compile(spec, params)
	if err != nil {
		return nil, err
	}
	return sw.AttachSpec(c, c.Ports(), nil, recircPipe)
}

func compressSpec() *prog.Spec {
	return prog.HeaderCompressSpec(prog.CompressParams{
		Slots: 64, CompressPort: int(portGen), RestorePort: int(portNF),
	})
}

// crSavedBytes is the wire saving per compressed packet for the UDP profile:
// IPv4+UDP (28 B) replaced by the compression header (7 B).
const crSavedBytes = packet.IPv4HeaderLen + packet.UDPHeaderLen - packet.CRHeaderLen

// TestAttachSpecCompression runs the header-compression policy — loaded as
// a declarative spec, no Go program — through the canonical testbed round
// trip: compress toward the NF, MAC-swap, restore toward the sink,
// byte-identical output.
func TestAttachSpecCompression(t *testing.T) {
	sw := NewSwitch("cr")
	sw.AddL2Route(nfMAC, portNF)
	sw.AddL2Route(sinkMAC, portSink)
	inst, err := attachSpec(sw, compressSpec(), nil, -1)
	if err != nil {
		t.Fatalf("AttachSpec: %v", err)
	}

	orig := mkPkt(512, 1)
	want := orig.Clone()

	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("compressed packet dropped")
	}
	if em.Port != portNF {
		t.Errorf("egress port = %d, want %d", em.Port, portNF)
	}
	if em.Pkt.CR == nil {
		t.Fatal("packet toward NF missing compression header")
	}
	if !em.Pkt.CR.Tag.Valid() {
		t.Error("compression tag CRC invalid")
	}
	if got, wantLen := em.Pkt.Len(), want.Len()-crSavedBytes; got != wantLen {
		t.Errorf("compressed wire length = %d, want %d (%d saved)", got, wantLen, crSavedBytes)
	}
	if inst.Counters()["compressions"] != 1 {
		t.Errorf("compressions = %d, want 1", inst.Counters()["compressions"])
	}
	if got := inst.Occupied(prog.RoleCompMeta); got != 1 {
		t.Errorf("context occupancy = %d, want 1", got)
	}

	// The NF sees the compressed frame, swaps MACs, returns it.
	frame := em.Pkt.AppendSerialize(nil)
	nfSide, err := packet.ParseAt(frame, -1)
	if err != nil {
		t.Fatalf("NF-side parse of compressed frame: %v", err)
	}
	if nfSide.CR == nil || nfSide.UDP != nil {
		t.Fatal("compressed frame did not parse as a CR frame")
	}
	toSink(nfSide)

	back, err := packet.ParseAt(nfSide.AppendSerialize(nil), -1)
	if err != nil {
		t.Fatalf("switch-side reparse: %v", err)
	}
	em2 := inject(sw, back, portNF)
	if em2 == nil {
		t.Fatal("restored packet dropped")
	}
	if em2.Port != portSink {
		t.Errorf("restored egress port = %d, want %d", em2.Port, portSink)
	}
	if em2.Pkt.CR != nil {
		t.Error("restored packet still carries the compression header")
	}
	got := em2.Pkt.AppendSerialize(nil)
	wantBytes := toSink(want).AppendSerialize(nil)
	if !bytes.Equal(got, wantBytes) {
		t.Error("restored frame differs from the original")
	}
	if inst.Counters()["restores"] != 1 {
		t.Errorf("restores = %d, want 1", inst.Counters()["restores"])
	}
	if got := inst.Occupied(prog.RoleCompMeta); got != 0 {
		t.Errorf("context occupancy after restore = %d, want 0", got)
	}
}

// TestAttachSpecCompressionSkipsTCP pins the policy boundary: TCP headers
// exceed the context registers, so TCP traffic passes uncompressed.
func TestAttachSpecCompressionSkipsTCP(t *testing.T) {
	sw := NewSwitch("cr-tcp")
	sw.AddL2Route(nfMAC, portNF)
	inst, err := attachSpec(sw, compressSpec(), nil, -1)
	if err != nil {
		t.Fatalf("AttachSpec: %v", err)
	}
	tcpFlow := flow
	tcpFlow.Protocol = packet.IPProtoTCP
	pkt := packet.NewBuilder(genMAC, nfMAC).TCP(tcpFlow, 512, 1, 0)
	em := inject(sw, pkt, portGen)
	if em == nil {
		t.Fatal("TCP packet dropped")
	}
	if em.Pkt.CR != nil {
		t.Error("TCP packet was compressed")
	}
	if inst.Counters()["compressions"] != 0 {
		t.Errorf("compressions = %d, want 0", inst.Counters()["compressions"])
	}
}

// TestAttachSpecParkCompress runs the combined policy: payload parks and
// headers compress on the way to the NF; both restore on the way back.
func TestAttachSpecParkCompress(t *testing.T) {
	sw := NewSwitch("both")
	sw.AddL2Route(nfMAC, portNF)
	sw.AddL2Route(sinkMAC, portSink)
	spec := prog.ParkCompressSpec(prog.ParkParams{
		Slots: 64, MaxExpiry: 1, SplitPort: int(portGen), MergePort: int(portNF),
		Blocks: BaseBlocks, BaseBlocks: BaseBlocks, BlockBytes: BlockBytes, MaxClock: MaxClock,
	}, 64)
	inst, err := attachSpec(sw, spec, nil, -1)
	if err != nil {
		t.Fatalf("AttachSpec: %v", err)
	}

	orig := mkPkt(512, 7)
	want := orig.Clone()
	em := inject(sw, orig, portGen)
	if em == nil {
		t.Fatal("packet dropped on the way to the NF")
	}
	if em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Fatal("payload not parked")
	}
	if em.Pkt.CR == nil {
		t.Fatal("headers not compressed")
	}
	// On the wire: full frame minus parked payload minus saved header bytes
	// plus the PayloadPark header.
	wantLen := want.Len() - BaseParkBytes - crSavedBytes + packet.PPHeaderLen
	if got := em.Pkt.Len(); got != wantLen {
		t.Errorf("NF-link wire length = %d, want %d", got, wantLen)
	}

	frame := em.Pkt.AppendSerialize(nil)
	nfSide, err := packet.ParseAt(frame, sw.PPOffset(portNF))
	if err != nil {
		t.Fatalf("NF-side parse: %v", err)
	}
	toSink(nfSide)
	back, err := packet.ParseAt(nfSide.AppendSerialize(nil), sw.PPOffset(portNF))
	if err != nil {
		t.Fatalf("switch-side reparse: %v", err)
	}
	em2 := inject(sw, back, portNF)
	if em2 == nil {
		t.Fatal("packet dropped on the way to the sink")
	}
	got := em2.Pkt.AppendSerialize(nil)
	wantBytes := toSink(want).AppendSerialize(nil)
	if !bytes.Equal(got, wantBytes) {
		t.Error("reassembled+restored frame differs from the original")
	}
	for name, wantN := range map[string]uint64{
		prog.CtrSplits: 1, prog.CtrMerges: 1, "compressions": 1, "restores": 1,
	} {
		if got := inst.Counters()[name]; got != wantN {
			t.Errorf("%s = %d, want %d", name, got, wantN)
		}
	}
}

// TestAttachSpecBesideParkRecompiles attaches a second program to a pipe
// that has already carried traffic: the pipe's match programs are rebuilt,
// and on the next packet both programs' tables fire, interleaved in stage
// order (the claim of each in stage 1, the stores behind them).
func TestAttachSpecBesideParkRecompiles(t *testing.T) {
	sw, park := testbed(t, defaultCfg(), -1)
	if em := inject(sw, mkPkt(512, 1), portGen); em == nil || em.Pkt.CR != nil {
		t.Fatalf("parking-only split: %+v", em)
	}
	comp, err := attachSpec(sw, compressSpec(), nil, -1)
	if err != nil {
		t.Fatalf("AttachSpec: %v", err)
	}
	orig := mkPkt(512, 2)
	want := orig.Clone()
	em := inject(sw, orig, portGen)
	if em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled || em.Pkt.CR == nil {
		t.Fatalf("split after second attach: want parked and compressed, got %+v", em)
	}
	back, err := packet.ParseAt(toSink(em.Pkt).AppendSerialize(nil), sw.PPOffset(portNF))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	em2 := inject(sw, back, portNF)
	if em2 == nil || !bytes.Equal(em2.Pkt.AppendSerialize(nil), toSink(want).AppendSerialize(nil)) {
		t.Error("round trip through both programs is not the identity")
	}
	if park.C.Splits.Value() != 2 || park.C.Merges.Value() != 1 ||
		comp.Counters()["compressions"] != 1 || comp.Counters()["restores"] != 1 {
		t.Errorf("splits=%d merges=%d compressions=%d restores=%d, want 2,1,1,1", park.C.Splits.Value(),
			park.C.Merges.Value(), comp.Counters()["compressions"], comp.Counters()["restores"])
	}
}

func TestAttachSpecErrors(t *testing.T) {
	sw := NewSwitch("err")
	if _, err := sw.AttachSpec(nil, prog.Ports{}, nil, -1); err == nil {
		t.Error("nil program accepted")
	}
	noSplit := &prog.Spec{Name: "nosplit", PHVBits: 100, Tables: []prog.TableSpec{{Name: "t", Entries: []prog.EntrySpec{{
		Name: "e", Action: "drop", Counters: map[string]string{"count": "drops"}, Reasons: map[string]string{"why": "test"},
	}}}}}
	if _, err := attachSpec(sw, noSplit, nil, -1); err == nil ||
		!strings.Contains(err.Error(), "split_port") {
		t.Errorf("spec without split_port: err = %v", err)
	}
	crossPipe := compressSpec()
	crossPipe.Params["merge_port"] = 17
	if _, err := attachSpec(sw, crossPipe, nil, -1); err == nil ||
		!strings.Contains(err.Error(), "different pipes") {
		t.Errorf("cross-pipe spec: err = %v", err)
	}
	if _, err := attachSpec(sw, compressSpec(), map[string]int64{"split_port": -1}, -1); err == nil {
		t.Error("negative split port accepted")
	}
	recircSpec := prog.PayloadParkSpec(prog.ParkParams{
		Slots: 8, MaxExpiry: 1, SplitPort: 0, MergePort: 1, Recirculate: true,
		Blocks: BaseBlocks + RecircBlocks, BaseBlocks: BaseBlocks, BlockBytes: BlockBytes, MaxClock: MaxClock,
	})
	if _, err := attachSpec(sw, recircSpec, nil, -1); err == nil ||
		!strings.Contains(err.Error(), "recirculation pipe -1") {
		t.Errorf("recirc spec without a recirculation pipe: err = %v", err)
	}
	requireSameSwitch(t, sw, NewSwitch("fresh"))
}

// requireSameSwitch fails unless got matches want in every piece of loader
// bookkeeping — per-port PayloadPark offsets, the largest park region,
// recirculation routing, each pipe's resources — and in the bytes a 64 B
// and a 1500 B frame leave with, toward the NF and back toward the sink.
func requireSameSwitch(t *testing.T, got, want *Switch) {
	t.Helper()
	for port := rmt.PortID(0); port < NumPorts; port++ {
		if g, w := got.PPOffset(port), want.PPOffset(port); g != w {
			t.Errorf("PPOffset(%d) = %d, want %d", port, g, w)
		}
	}
	if g, w := got.MaxParkBytes(), want.MaxParkBytes(); g != w {
		t.Errorf("MaxParkBytes = %d, want %d", g, w)
	}
	if !maps.Equal(got.recircOf, want.recircOf) {
		t.Errorf("recircOf = %v, want %v", got.recircOf, want.recircOf)
	}
	for i := range NumPipes {
		if g, w := got.Pipe(i).Resources(), want.Pipe(i).Resources(); g != w {
			t.Errorf("pipe %d resources %+v, want %+v", i, g, w)
		}
	}
	for _, size := range []int{64, 1500} {
		g, w := roundTrip(t, got, size), roundTrip(t, want, size)
		if !slices.EqualFunc(g[:], w[:], bytes.Equal) {
			t.Errorf("%d B frame: got %x, want %x", size, g, w)
		}
	}
}

// roundTrip sends one frame of size from the generator, MAC-swaps what
// reaches the NF port as the NF server would, and returns the frames out
// toward the NF and toward the sink. A frame that does not parse at the
// merge port's PayloadPark offset (a payload shorter than the boundary
// carries no header) returns the parse error in place of the second frame.
func roundTrip(t *testing.T, sw *Switch, size int) [2][]byte {
	t.Helper()
	sw.AddL2Route(nfMAC, portNF)
	sw.AddL2Route(sinkMAC, portSink)
	toNF, _, err := injectFrame(sw, mkPkt(size, 1).Serialize(), portGen)
	if err != nil || toNF == nil {
		t.Fatalf("%d B frame toward the NF: %x, %v", size, toNF, err)
	}
	back, err := packet.ParseAt(toNF, sw.PPOffset(portNF))
	if err != nil {
		return [2][]byte{toNF, []byte(err.Error())}
	}
	out, _, err := injectFrame(sw, toSink(back).Serialize(), portNF)
	if err != nil {
		t.Fatalf("%d B frame toward the sink: %v", size, err)
	}
	return [2][]byte{toNF, out}
}

// TestAttachLoadersAgree: the typed wrapper and the spec loader given the
// same program leave identical switches, with and without recirculation and
// a moved boundary — the per-port offsets and park region come from the
// loaded program's parser geometry, not from the Config.
func TestAttachLoadersAgree(t *testing.T) {
	for _, recirc := range []bool{false, true} {
		for _, boundary := range []int{0, 32} {
			cfg := defaultCfg()
			cfg.Recirculate, cfg.BoundaryOffset = recirc, boundary
			rp := -1
			if recirc {
				rp = 1
			}
			typed, bySpec := NewSwitch("typed"), NewSwitch("spec")
			if _, err := typed.AttachPayloadPark(cfg, rp); err != nil {
				t.Fatal(err)
			}
			if _, err := attachSpec(bySpec, prog.PayloadParkSpec(prog.ParkParams{
				Slots: cfg.Slots, MaxExpiry: cfg.MaxExpiry, SplitPort: int(cfg.SplitPort), MergePort: int(cfg.MergePort),
				BoundaryOffset: boundary, Recirculate: recirc,
				Blocks: cfg.Blocks(), BaseBlocks: BaseBlocks, BlockBytes: BlockBytes, MaxClock: MaxClock,
			}), nil, rp); err != nil {
				t.Fatal(err)
			}
			if typed.MaxParkBytes() != cfg.ParkBytes() || typed.PPOffset(portNF) != boundary {
				t.Errorf("recirc=%t boundary=%d: MaxParkBytes %d, PPOffset %d; want %d, %d", recirc, boundary,
					typed.MaxParkBytes(), typed.PPOffset(portNF), cfg.ParkBytes(), boundary)
			}
			requireSameSwitch(t, bySpec, typed)
		}
	}
}

// TestUnguardedStoreIsACountedDrop: the parking spec with meta.split_claimed
// dropped from its store entries still loads, and then stores every block of
// every packet on the split port — including a 64-byte frame whose payload
// the parser was too small to lift. That used to die on an index into the
// PHV's empty block list; it must cost one counted drop with its own reason,
// on the parsed-packet path and on the frame path, and park nothing.
func TestUnguardedStoreIsACountedDrop(t *testing.T) {
	sw := NewSwitch("unguarded")
	sw.AddL2Route(nfMAC, portNF)
	spec := prog.PayloadParkSpec(prog.ParkParams{
		Slots: 64, MaxExpiry: 1, SplitPort: int(portGen), MergePort: int(portNF),
		Blocks: BaseBlocks, BaseBlocks: BaseBlocks, BlockBytes: BlockBytes, MaxClock: MaxClock,
	})
	for ti := range spec.Tables {
		for ei := range spec.Tables[ti].Entries {
			e := &spec.Tables[ti].Entries[ei]
			if e.Name == "store" {
				e.Match = slices.DeleteFunc(e.Match, func(c prog.CondSpec) bool { return c.Field == "meta.split_claimed" })
			}
		}
	}
	inst, err := attachSpec(sw, spec, nil, -1)
	if err != nil {
		t.Fatalf("AttachSpec: %v", err)
	}
	if em, why := injectTraced(sw, mkPkt(64, 1), portGen); em != nil || why != DropNoParkRegion {
		t.Fatalf("64-byte packet: emission %v, reason %q; want a %q drop", em, why, DropNoParkRegion)
	}
	if out, em, err := injectFrame(sw, mkPkt(64, 2).Serialize(), portGen); out != nil || em != nil || err != nil {
		t.Fatalf("64-byte frame: emission %v, error %v; want a drop", em, err)
	}
	if n := sw.Drops()[DropNoParkRegion]; n != 2 || inst.Occupied(prog.RoleMeta) != 0 {
		t.Errorf("drops[%q] = %d, occupancy %d; want 2 and nothing parked", DropNoParkRegion, n, inst.Occupied(prog.RoleMeta))
	}
	// A payload the parser lifts still parks and travels on.
	if em := inject(sw, mkPkt(512, 3), portGen); em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Fatalf("512-byte packet after the drops: emission %+v, want a split", em)
	}
}

// TestFailedAttachSpecTouchesNoPipe: a program either loader refuses — one
// that does not fit the pipe, a split port off the switch, a recirculating
// table too large for its SRAM — leaves a switch equal to a fresh one, and
// the good spec attached after it runs exactly as on a fresh switch.
func TestFailedAttachSpecTouchesNoPipe(t *testing.T) {
	bad := compressSpec()
	bad.Tables[len(bad.Tables)-1].Resources.VLIWSlots = rmt.StageVLIWSlots + 1
	for _, tc := range []struct {
		name, want string
		attach     func(*Switch) error
	}{
		{"VLIW overflow", "VLIW overflow", func(sw *Switch) error {
			_, err := attachSpec(sw, bad, nil, -1)
			return err
		}},
		{"split port off the switch", "split port 64", func(sw *Switch) error {
			_, err := sw.AttachPayloadPark(Config{Slots: 8, MaxExpiry: 1, SplitPort: 64, MergePort: 65}, -1)
			return err
		}},
		{"recirculating table too large", "SRAM overflow", func(sw *Switch) error {
			_, err := sw.AttachPayloadPark(Config{Slots: MaxSlots, MaxExpiry: 1, SplitPort: portGen, MergePort: portNF, Recirculate: true}, 1)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused, fresh := NewSwitch("reused"), NewSwitch("fresh")
			if err := tc.attach(reused); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			requireSameSwitch(t, reused, fresh)
			for _, sw := range []*Switch{reused, fresh} {
				if _, err := attachSpec(sw, compressSpec(), nil, -1); err != nil {
					t.Fatal(err)
				}
			}
			requireSameSwitch(t, reused, fresh)
		})
	}
}

// TestCompiledStateStaysPerSwitch: one compiled program installed on two
// switches at different ports gives each its own ports and its own state.
// A split on A moves A's counters, entry hits, occupancy and register cells
// and leaves B's at zero; B, installed on pipe 1, splits on its own port and
// not on A's, and expects PayloadPark headers on its own merge port; and a
// runtime write on A leaves B's value alone.
func TestCompiledStateStaysPerSwitch(t *testing.T) {
	c, err := CompilePark(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewSwitch("a"), NewSwitch("b")
	at := [2]Config{defaultCfg(), {Slots: 64, MaxExpiry: 1, SplitPort: 17, MergePort: 18}}
	var insts [2]*prog.Instance
	for i, sw := range []*Switch{a, b} {
		sw.AddL2Route(nfMAC, at[i].MergePort)
		p, err := sw.AttachPark(c, at[i], -1)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = p.Instance()
	}
	if em := inject(a, mkPkt(512, 1), portGen); em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Fatalf("split on A: %+v", em)
	}
	// state sums an instance's counters, entry hits and non-zero register
	// bytes, and counts its occupied slots.
	state := func(in *prog.Instance) (counts, hits, regBytes uint64, occupied int) {
		for _, v := range in.Counters() {
			counts += v
		}
		for _, m := range in.Tables() {
			for i := range m.Rules {
				hits += m.Rules[i].Hits()
			}
			for cell := 0; m.Reg != nil && cell < m.Reg.Cells(); cell++ {
				for _, v := range m.Reg.Snapshot(cell) {
					regBytes += uint64(min(v, 1))
				}
			}
		}
		return counts, hits, regBytes, in.Occupied(prog.RoleMeta)
	}
	if n, h, r, o := state(insts[0]); n == 0 || h == 0 || r == 0 || o != 1 {
		t.Errorf("A after a split: counters %d, hits %d, register bytes %d, occupied %d; want all moved and 1 occupied", n, h, r, o)
	}
	if n, h, r, o := state(insts[1]); n+h+r != 0 || o != 0 {
		t.Errorf("B after A's split: counters %d, hits %d, register bytes %d, occupied %d; want all zero", n, h, r, o)
	}
	if em := inject(b, mkPkt(512, 2), portGen); em == nil || em.Pkt.PP != nil {
		t.Errorf("B on A's split port %d: %+v, want forwarded unsplit", portGen, em)
	}
	if em := inject(b, mkPkt(512, 3), 17); em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Errorf("B on its own split port 17: %+v, want split", em)
	}
	if _, _, _, o := state(insts[1]); o != 1 {
		t.Errorf("B occupies %d slots after its split, want 1", o)
	}
	if a.PPOffset(portNF) != 0 || a.PPOffset(18) != -1 || b.PPOffset(18) != 0 || b.PPOffset(portNF) != -1 {
		t.Errorf("PayloadPark offsets A %d/%d, B %d/%d at ports %d/18: want each switch's own merge port only",
			a.PPOffset(portNF), a.PPOffset(18), b.PPOffset(portNF), b.PPOffset(18), portNF)
	}
	was, _ := insts[1].Runtime(prog.RTMaxExpiry)
	insts[0].SetRuntime(prog.RTMaxExpiry, was+5)
	if got, _ := insts[0].Runtime(prog.RTMaxExpiry); got != was+5 {
		t.Errorf("A's max_expiry = %d after writing %d", got, was+5)
	}
	if got, _ := insts[1].Runtime(prog.RTMaxExpiry); got != was {
		t.Errorf("B's max_expiry = %d after a write on A, want %d", got, was)
	}
}

// TestRefusedInstallChangesNothing: a compiled program shared by two
// switches, installed on one, and refused on the other — at ports on two
// pipes, then as a second parking program whose parser geometry conflicts
// with the one already there, recirculating through pipe 1 — leaves both
// switches' pipes, per-port offsets, park region and recirculation routing
// as they were; and the copy installed before the refusals, and one
// installed on a new switch after them, are each exactly what a fresh
// compile installs.
func TestRefusedInstallChangesNothing(t *testing.T) {
	cfg := Config{Slots: 64, MaxExpiry: 1, SplitPort: 2, MergePort: 3, BoundaryOffset: 32, Recirculate: true}
	c, err := CompilePark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, ref := NewSwitch("fresh"), NewSwitch("ref")
	if _, err := fresh.AttachPark(c, cfg, 1); err != nil {
		t.Fatalf("the program on a fresh switch: %v", err)
	}
	if _, err := ref.AttachPayloadPark(cfg, 1); err != nil {
		t.Fatal(err)
	}
	sw, _ := testbed(t, defaultCfg(), -1)
	want, _ := testbed(t, defaultCfg(), -1)
	crossPipe := cfg
	crossPipe.MergePort = 20
	if _, err := sw.AttachPark(c, crossPipe, 1); err == nil || !strings.Contains(err.Error(), "different pipes") {
		t.Fatalf("ports on two pipes: err = %v, want refused", err)
	}
	if _, err := sw.AttachPark(c, cfg, 1); err == nil || !strings.Contains(err.Error(), "parser") {
		t.Fatalf("second parking program on pipe 0: err = %v, want a parser conflict", err)
	}
	if n := len(sw.Programs()); n != 1 {
		t.Errorf("%d programs after refused installs, want 1", n)
	}
	requireSameSwitch(t, sw, want)
	requireSameSwitch(t, fresh, ref)
	after := NewSwitch("after")
	if _, err := after.AttachPark(c, cfg, 1); err != nil {
		t.Fatalf("the refused program on a new switch: %v", err)
	}
	requireSameSwitch(t, after, ref)
}
