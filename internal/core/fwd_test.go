package core

import (
	"math/rand"
	"testing"

	"github.com/payloadpark/payloadpark/internal/maglev"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// TestForwardingTableMatchesReferenceMaps interleaves the control plane's
// writes — new L2 routes, overwrites of existing ones (the failure
// scenario's mid-run reroute), ECMP group installs and member removals —
// with lookups over 10 k random MACs, against the two Go maps the table
// replaced: a group wins over the L2 port, an unknown MAC has no route,
// and a rewritten route answers with its new port at once.
func TestForwardingTableMatchesReferenceMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sw := NewSwitch("fwd")
	const nMACs = 10_000
	macs := make([]packet.MAC, nMACs)
	for i := range macs {
		rng.Read(macs[i][:])
		if i%7 == 0 { // a fabric's MACs: one prefix, low bits counting
			macs[i] = packet.MAC{2, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		}
	}
	refL2 := make(map[packet.MAC]rmt.PortID)
	refGroup := make(map[packet.MAC]map[string]rmt.PortID)
	memberNames := []string{"spine0", "spine1", "spine2", "spine3"}

	check := func(mac packet.MAC) {
		t.Helper()
		pkt := mkFlowPkt(flowN(rng.Intn(4096)), 64, 1)
		pkt.Eth.Dst = mac
		got, ok := sw.fwd.resolve(pkt)
		if members, grouped := refGroup[mac]; grouped {
			names := make([]string, 0, len(members))
			for name := range members {
				names = append(names, name)
			}
			tbl, err := maglev.New(names, ecmpTableSize)
			if err != nil {
				t.Fatal(err)
			}
			if want := members[tbl.Lookup(FlowHash(pkt.FiveTuple()))]; !ok || got != want {
				t.Fatalf("%v: group resolved to port %d ok=%v, want %d", mac, got, ok, want)
			}
			if installed := sw.ECMPMembers(mac); len(installed) != len(members) {
				t.Fatalf("%v: ECMPMembers = %v, want the %d members of %v", mac, installed, len(members), members)
			}
			return
		}
		want, routed := refL2[mac]
		if ok != routed || (ok && got != want) {
			t.Fatalf("%v: resolved to port %d ok=%v, want %d ok=%v", mac, got, ok, want, routed)
		}
		if sw.ECMPMembers(mac) != nil {
			t.Fatalf("%v: ECMPMembers reports a group none installed", mac)
		}
	}

	for step := 0; step < 60_000; step++ {
		mac := macs[rng.Intn(nMACs)]
		switch op := rng.Intn(10); {
		case op < 3: // add, or overwrite an existing route
			port := rmt.PortID(rng.Intn(NumPorts))
			sw.AddL2Route(mac, port)
			refL2[mac] = port
			check(mac)
		case op == 3: // install a group, or shrink/replace the installed one
			members := make(map[string]rmt.PortID)
			for _, name := range memberNames[:1+rng.Intn(len(memberNames))] {
				members[name] = rmt.PortID(rng.Intn(NumPorts))
			}
			if err := sw.SetECMPRoute(mac, members); err != nil {
				t.Fatal(err)
			}
			refGroup[mac] = members
			check(mac)
		default:
			check(mac)
		}
	}
	for _, mac := range macs {
		check(mac)
	}
	if want := len(refL2); sw.fwd.used < want || sw.fwd.used > want+len(refGroup) {
		t.Errorf("table holds %d entries for %d routed and %d grouped MACs", sw.fwd.used, want, len(refGroup))
	}
	if len(sw.fwd.cells) < 2*sw.fwd.used || len(sw.fwd.cells)&(len(sw.fwd.cells)-1) != 0 {
		t.Errorf("table of %d cells holds %d entries: want a power of two at most half full", len(sw.fwd.cells), sw.fwd.used)
	}
}

// TestForwardingLookupAllocFree: the per-packet route lookup allocates
// nothing, L2 or hash group.
func TestForwardingLookupAllocFree(t *testing.T) {
	sw := NewSwitch("fwd")
	sw.AddL2Route(nfMAC, portNF)
	if err := sw.SetECMPRoute(sinkMAC, map[string]rmt.PortID{"a": 3, "b": 4}); err != nil {
		t.Fatal(err)
	}
	toNF, toGroup := mkPkt(64, 1), toSink(mkPkt(64, 2))
	if allocs := testing.AllocsPerRun(100, func() {
		sw.fwd.resolve(toNF)
		sw.fwd.resolve(toGroup)
	}); allocs != 0 {
		t.Errorf("route lookup allocates %.1f/op, want 0", allocs)
	}
}
