package core

import (
	"fmt"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// mkFlowPkt builds a generator packet for an arbitrary flow (ECMP tests
// need many distinct 5-tuples).
func mkFlowPkt(ft packet.FiveTuple, size int, id uint16) *packet.Packet {
	return packet.NewBuilder(genMAC, nfMAC).UDP(ft, size, id)
}

func flowN(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, byte(i >> 8), byte(i)}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: uint16(5000 + i), DstPort: 80, Protocol: packet.IPProtoUDP,
	}
}

func TestECMPGroupSpreadsAndPinsFlows(t *testing.T) {
	sw := NewSwitch("ecmp")
	if err := sw.SetECMPRoute(nfMAC, map[string]rmt.PortID{
		"spine0": 3, "spine1": 4, "spine2": 5,
	}); err != nil {
		t.Fatal(err)
	}

	perPort := map[rmt.PortID]int{}
	assigned := map[int]rmt.PortID{}
	for i := 0; i < 512; i++ {
		em := inject(sw, mkFlowPkt(flowN(i), 256, uint16(i)), portGen)
		if em == nil {
			t.Fatalf("flow %d dropped", i)
		}
		perPort[em.Port]++
		assigned[i] = em.Port
	}
	if len(perPort) != 3 {
		t.Fatalf("flows used %d ports, want 3: %v", len(perPort), perPort)
	}
	for port, n := range perPort {
		if n < 512/3/2 {
			t.Errorf("port %d got only %d/512 flows — poor spread", port, n)
		}
	}
	// Same flow always takes the same member.
	for i := 0; i < 512; i++ {
		em := inject(sw, mkFlowPkt(flowN(i), 256, uint16(1000+i)), portGen)
		if em == nil || em.Port != assigned[i] {
			t.Fatalf("flow %d moved ports without a membership change", i)
		}
	}
}

// TestECMPMemberRemovalRemapsMinimally pins the Maglev property the
// control plane relies on: shrinking a group only moves the flows whose
// member disappeared, so payload state pinned to surviving paths holds.
func TestECMPMemberRemovalRemapsMinimally(t *testing.T) {
	sw := NewSwitch("ecmp")
	full := map[string]rmt.PortID{"spine0": 3, "spine1": 4, "spine2": 5}
	if err := sw.SetECMPRoute(nfMAC, full); err != nil {
		t.Fatal(err)
	}
	before := map[int]rmt.PortID{}
	for i := 0; i < 512; i++ {
		em := inject(sw, mkFlowPkt(flowN(i), 256, uint16(i)), portGen)
		if em == nil {
			t.Fatalf("flow %d dropped", i)
		}
		before[i] = em.Port
	}

	// spine1 (port 4) fails; the controller pushes the surviving members.
	if err := sw.SetECMPRoute(nfMAC, map[string]rmt.PortID{"spine0": 3, "spine2": 5}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 512; i++ {
		em := inject(sw, mkFlowPkt(flowN(i), 256, uint16(2000+i)), portGen)
		if em == nil {
			t.Fatalf("flow %d dropped after rebalance", i)
		}
		if em.Port == 4 {
			t.Fatalf("flow %d still routed to the removed member", i)
		}
		if before[i] == 4 {
			continue // had to move
		}
		if em.Port != before[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d flows on surviving members were remapped; Maglev should move none", moved)
	}

	got := sw.ECMPMembers(nfMAC)
	want := []string{"spine0", "spine2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ECMPMembers = %v, want %v", got, want)
	}
	if sw.ECMPMembers(sinkMAC) != nil {
		t.Error("ECMPMembers for a group-less MAC should be nil")
	}
}

func TestECMPGroupPrecedesL2AndValidates(t *testing.T) {
	sw := NewSwitch("ecmp")
	sw.AddL2Route(nfMAC, 9)
	if err := sw.SetECMPRoute(nfMAC, map[string]rmt.PortID{"only": 5}); err != nil {
		t.Fatal(err)
	}
	em := inject(sw, mkFlowPkt(flowN(1), 256, 1), portGen)
	if em == nil || em.Port != 5 {
		t.Fatalf("group did not take precedence over L2 route: %+v", em)
	}
	if err := sw.SetECMPRoute(nfMAC, nil); err == nil {
		t.Error("empty member set accepted")
	}
	if err := sw.SetECMPRoute(nfMAC, map[string]rmt.PortID{"bad": NumPorts}); err == nil {
		t.Error("out-of-range member port accepted")
	}
}

func TestFlowHashDeterministic(t *testing.T) {
	a, b := FlowHash(flowN(7)), FlowHash(flowN(7))
	if a != b {
		t.Fatalf("FlowHash not deterministic: %d vs %d", a, b)
	}
	if FlowHash(flowN(7)) == FlowHash(flowN(8)) {
		t.Error("distinct flows hash equal (suspicious)")
	}
}

// TestSplitDemotion drives the control-plane split gate: a demoted
// program stops parking (disabled-header path, DemotedSkips) but keeps
// merging payloads parked before the demotion.
func TestSplitDemotion(t *testing.T) {
	sw, pp := testbed(t, defaultCfg(), -1)

	// Park one payload while promoted.
	em := inject(sw, mkPkt(512, 1), portGen)
	if em == nil || em.Pkt.PP == nil || !em.Pkt.PP.Enabled {
		t.Fatal("split failed while enabled")
	}
	held := em.Pkt

	// Demote: new split-eligible packets take the disabled-header path.
	pp.SetSplitEnabled(false)
	if v, _ := pp.Instance().Runtime(prog.RTSplitEnabled); v != 0 {
		t.Fatalf("%s = %d after demotion", prog.RTSplitEnabled, v)
	}
	em2 := inject(sw, mkPkt(512, 2), portGen)
	if em2 == nil {
		t.Fatal("demoted packet dropped")
	}
	if em2.Pkt.PP == nil || em2.Pkt.PP.Enabled {
		t.Fatalf("demoted packet PP header = %+v, want disabled header", em2.Pkt.PP)
	}
	if got := pp.C.DemotedSkips.Value(); got != 1 {
		t.Errorf("DemotedSkips = %d, want 1", got)
	}
	if got := pp.C.Splits.Value(); got != 1 {
		t.Errorf("Splits = %d, want 1 (no new claims while demoted)", got)
	}

	// The pre-demotion payload still merges.
	m := inject(sw, toSink(held), portNF)
	if m == nil {
		t.Fatal("pre-demotion payload failed to merge while demoted")
	}
	if pp.C.Merges.Value() != 1 || pp.C.PrematureEvictions.Value() != 0 {
		t.Errorf("merge counters: %s", pp.C.String())
	}

	// Restore: parking resumes.
	pp.SetSplitEnabled(true)
	em3 := inject(sw, mkPkt(512, 3), portGen)
	if em3 == nil || em3.Pkt.PP == nil || !em3.Pkt.PP.Enabled {
		t.Fatal("split did not resume after restore")
	}
}
