package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// boundaryCfg parks 160 bytes starting 64 bytes into the payload (§7
// variable decoupling boundary).
func boundaryCfg() Config {
	cfg := defaultCfg()
	cfg.BoundaryOffset = 64
	return cfg
}

func TestBoundarySplitLeavesPrefixVisible(t *testing.T) {
	sw, prog := testbed(t, boundaryCfg(), -1)
	orig := mkPkt(600, 1)
	want := orig.Clone()

	em := inject(sw, orig, portGen)
	if em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Fatal("boundary split failed")
	}
	pkt := em.Pkt
	// The first 64 payload bytes are still there, in front of the parked
	// region; the parked 160 bytes are gone.
	if !bytes.Equal(pkt.Payload[:64], want.Payload[:64]) {
		t.Error("visible prefix corrupted by split")
	}
	if !bytes.Equal(pkt.Payload[64:], want.Payload[64+BaseParkBytes:]) {
		t.Error("remainder after the parked region corrupted")
	}
	if pkt.PPOffset != 64 {
		t.Errorf("PP offset = %d, want 64", pkt.PPOffset)
	}
	// On the wire, the PP header sits after the visible prefix.
	frame := pkt.Serialize()
	reparsed, err := packet.ParseAt(frame, 64)
	if err != nil {
		t.Fatalf("reparse at boundary: %v", err)
	}
	if !reparsed.PP.Enabled || reparsed.PP.Tag != pkt.PP.Tag {
		t.Error("PP header lost at boundary offset")
	}
	if prog.C.Splits.Value() != 1 {
		t.Errorf("splits = %d", prog.C.Splits.Value())
	}
}

func TestBoundaryRoundTripIdentity(t *testing.T) {
	sw, prog := testbed(t, boundaryCfg(), -1)
	f := func(extra uint16, id uint16) bool {
		size := 42 + int(extra)%1459
		orig := mkPkt(size, id)
		want := orig.Clone()
		em := inject(sw, orig, portGen)
		if em == nil {
			return false
		}
		em2 := inject(sw, toSink(em.Pkt), portNF)
		if em2 == nil {
			return false
		}
		return bytes.Equal(em2.Pkt.Payload, want.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if prog.C.PrematureEvictions.Value() != 0 {
		t.Errorf("premature evictions: %d", prog.C.PrematureEvictions.Value())
	}
}

func TestBoundaryMinimumPayloadRaised(t *testing.T) {
	sw, prog := testbed(t, boundaryCfg(), -1)
	// Payload 200: enough for plain parking (160) but not for
	// offset 64 + 160 = 224 -> ENB=0.
	em := inject(sw, mkPkt(42+200, 1), portGen)
	if em == nil || em.Pkt.PP == nil || em.Pkt.PP.Enabled {
		t.Fatal("payload below offset+park must not split")
	}
	if prog.C.SmallPayloadSkips.Value() != 1 {
		t.Errorf("smallSkips = %d", prog.C.SmallPayloadSkips.Value())
	}
}

func TestBoundaryFramePath(t *testing.T) {
	sw, _ := testbed(t, boundaryCfg(), -1)
	orig := mkPkt(700, 2)
	want := orig.Clone()

	splitFrame, em, err := injectFrame(sw, orig.Serialize(), portGen)
	if err != nil || em == nil {
		t.Fatalf("frame split: %v", err)
	}
	// An NF-unaware parse sees the original first 64 payload bytes at the
	// front of its payload view — this is what makes Slim-DPI work on
	// split packets.
	nfView, err := packet.ParseAt(splitFrame, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nfView.Payload[:64], want.Payload[:64]) {
		t.Error("NF-visible prefix differs from the original payload prefix")
	}
	// Return the frame via the merge port; the switch parses the header
	// at the program's offset automatically.
	nfView.Eth.Src, nfView.Eth.Dst = nfMAC, sinkMAC
	mergedFrame, em2, err := injectFrame(sw, nfView.Serialize(), portNF)
	if err != nil || em2 == nil {
		t.Fatalf("frame merge: %v", err)
	}
	merged, err := packet.ParseAt(mergedFrame, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Payload, want.Payload) {
		t.Error("boundary frame path did not restore the payload")
	}
}

func TestBoundaryValidation(t *testing.T) {
	cfg := defaultCfg()
	cfg.BoundaryOffset = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative boundary accepted")
	}
	cfg.BoundaryOffset = MaxBoundaryOffset + 1
	if err := cfg.Validate(); err == nil {
		t.Error("oversized boundary accepted")
	}
	// Geometry conflicts between programs on one pipe are rejected.
	sw := NewSwitch("t")
	if _, err := sw.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 0, MergePort: 1, BoundaryOffset: 32}, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 2, MergePort: 3, BoundaryOffset: 0}, -1); err == nil {
		t.Error("boundary geometry conflict accepted")
	}
}
