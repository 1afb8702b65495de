package core

import (
	"bytes"
	"testing"
)

// TestMultiSwitchStriping exercises the §7 scalability idea: "We can
// further increase the goodput gain, and distribute memory pressure by
// striping the packet payload across multiple switches in the packet
// path. ... all switches can perform Split and Merge."
//
// Two cascaded switches each park 160 bytes. Switch B treats switch A's
// PayloadPark header as opaque payload (it sits at the front of what B
// sees as payload), parks it together with 153 more bytes, and restores
// it on the way back — so A's merge still finds its header. No code
// changes are needed: transparency composes.
func TestMultiSwitchStriping(t *testing.T) {
	// Topology: gen -> A(split) -> B(split) -> NF -> B(merge) -> A(merge) -> sink.
	swA := NewSwitch("A")
	swB := NewSwitch("B")
	// On A, everything toward the NF leaves via port 1 (cable to B), and
	// merged packets go to the sink (port 2).
	swA.AddL2Route(nfMAC, 1)
	swA.AddL2Route(sinkMAC, 2)
	// On B, port 0 faces A (split side), port 1 faces the NF server, and
	// merged traffic back toward the sink leaves via port 0 to A.
	swB.AddL2Route(nfMAC, 1)
	swB.AddL2Route(sinkMAC, 0)

	progA, err := swA.AttachPayloadPark(Config{Slots: 64, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := swB.AttachPayloadPark(Config{Slots: 64, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1)
	if err != nil {
		t.Fatal(err)
	}

	// The payload must be large enough for both parks: A removes 160,
	// then B needs 160 more on top of A's 7-byte header.
	for _, size := range []int{600, 882, 1492} {
		orig := mkPkt(size, uint16(size))
		want := orig.Clone()

		// Forward path: A splits...
		emA := inject(swA, orig, 0)
		if emA == nil || emA.Pkt.PP == nil || !emA.Pkt.PP.Enabled {
			t.Fatalf("size %d: switch A did not split", size)
		}
		lenAfterA := emA.Pkt.Len()

		// ...the frame travels to B as bytes; B parses it as a plain
		// packet (B does not know about A's header — it is payload).
		frameAB := emA.Pkt.Serialize()
		frameB, emB, err := injectFrame(swB, frameAB, 0)
		if err != nil || emB == nil {
			t.Fatalf("size %d: switch B rejected: %v", size, err)
		}
		if emB.Pkt.PP == nil || !emB.Pkt.PP.Enabled {
			t.Fatalf("size %d: switch B did not split", size)
		}
		if len(frameB) != lenAfterA-BaseParkBytes+7 {
			t.Errorf("size %d: after B = %d bytes, want %d", size, len(frameB), lenAfterA-BaseParkBytes+7)
		}

		// NF server: swap MACs on the double-split packet (bytes level).
		nfPkt := emB.Pkt
		nfPkt.Eth.Src, nfPkt.Eth.Dst = nfMAC, sinkMAC

		// Return path: B merges (restores A's header + B's parked bytes)...
		emB2 := inject(swB, nfPkt, 1)
		if emB2 == nil {
			t.Fatalf("size %d: switch B merge failed", size)
		}
		// ...then A merges, arriving as bytes on A's merge port.
		frameBA := emB2.Pkt.Serialize()
		frameOut, emA2, err := injectFrame(swA, frameBA, 1)
		if err != nil || emA2 == nil {
			t.Fatalf("size %d: switch A merge failed: %v", size, err)
		}

		// The sink receives the original packet, MAC-rewritten.
		want.Eth.Src, want.Eth.Dst = nfMAC, sinkMAC
		if !bytes.Equal(frameOut, want.Serialize()) {
			t.Errorf("size %d: striped round trip not byte-identical", size)
		}
	}

	if progA.C.Splits.Value() != 3 || progA.C.Merges.Value() != 3 {
		t.Errorf("switch A: splits=%d merges=%d", progA.C.Splits.Value(), progA.C.Merges.Value())
	}
	if progB.C.Splits.Value() != 3 || progB.C.Merges.Value() != 3 {
		t.Errorf("switch B: splits=%d merges=%d", progB.C.Splits.Value(), progB.C.Merges.Value())
	}
	if progA.Occupancy() != 0 || progB.Occupancy() != 0 {
		t.Error("parked payloads leaked in striped deployment")
	}
}

// TestMultiSwitchSmallMiddle checks the degraded case: a packet big
// enough for A but not for B just grows by B's disabled header and still
// round-trips intact.
func TestMultiSwitchSmallMiddle(t *testing.T) {
	swA := NewSwitch("A")
	swB := NewSwitch("B")
	swA.AddL2Route(nfMAC, 1)
	swA.AddL2Route(sinkMAC, 2)
	swB.AddL2Route(nfMAC, 1)
	swB.AddL2Route(sinkMAC, 0)
	if _, err := swA.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := swB.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1); err != nil {
		t.Fatal(err)
	}

	// 250 B payload: A parks 160 leaving 90+7 < 160, so B adds ENB=0.
	orig := mkPkt(42+250, 9)
	want := orig.Clone()
	emA := inject(swA, orig, 0)
	if emA == nil || !emA.Pkt.PP.Enabled {
		t.Fatal("A should split")
	}
	frameB, emB, err := injectFrame(swB, emA.Pkt.Serialize(), 0)
	if err != nil || emB == nil {
		t.Fatal("B rejected")
	}
	if emB.Pkt.PP.Enabled {
		t.Fatal("B should not have parked (remainder too small)")
	}
	_ = frameB

	nfPkt := emB.Pkt
	nfPkt.Eth.Src, nfPkt.Eth.Dst = nfMAC, sinkMAC
	emB2 := inject(swB, nfPkt, 1)
	if emB2 == nil {
		t.Fatal("B merge-strip failed")
	}
	frameOut, emA2, err := injectFrame(swA, emB2.Pkt.Serialize(), 1)
	if err != nil || emA2 == nil {
		t.Fatal("A merge failed")
	}
	want.Eth.Src, want.Eth.Dst = nfMAC, sinkMAC
	if !bytes.Equal(frameOut, want.Serialize()) {
		t.Error("degraded striping round trip not byte-identical")
	}
}
