package harness

import (
	"bytes"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/scenario"
)

// TestCtrlSuite pins the control-plane experiment family's acceptance
// properties at quick scale: the ECMP+adaptive controller strictly beats
// static routing under the 6x3 link failure with zero parking-safety
// violations, congestion rebalancing recovers the 6x3 steady-state
// comparison to health, and the demotion demo produces a decision
// timeline.
func TestCtrlSuite(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	res, err := collectCtrl(o)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) *scenario.Report {
		rep, ok := res.Runs[name]
		if !ok {
			t.Fatalf("no run %q in the result", name)
		}
		return rep
	}

	// Acceptance criterion: strictly higher goodput, zero violations.
	static, adaptive := run("ctrl-failure[static]"), run("ctrl-failure[ecmp+adaptive]")
	if adaptive.GoodputGbps <= static.GoodputGbps {
		t.Errorf("ECMP+adaptive failure goodput %.4f <= static %.4f",
			adaptive.GoodputGbps, static.GoodputGbps)
	}
	if v := static.Premature + adaptive.Premature; v != 0 {
		t.Errorf("parking-safety violations: %d", v)
	}
	if ns := rerouteAfterNs(o, adaptive); ns <= 0 || ns >= staticRerouteNs {
		t.Errorf("controller detection %.3f ms not inside (0, %.3f ms)",
			float64(ns)/1e6, staticRerouteNs/1e6)
	}
	if adaptive.Fabric.PhaseDelivered[1] <= static.Fabric.PhaseDelivered[1] {
		t.Errorf("outage-phase deliveries: adaptive %d <= static %d",
			adaptive.Fabric.PhaseDelivered[1], static.Fabric.PhaseDelivered[1])
	}

	// Congestion rebalancing: on 6x3 the blind-hash arm is unhealthy, the
	// adaptive arm drains the hot members and recovers.
	for _, topo := range []string{"4x2", "6x3"} {
		static := run("ctrl-modes-" + topo + "[control=static]")
		adaptive := run("ctrl-modes-" + topo + "[control=ecmp+adaptive]")
		run("ctrl-modes-" + topo + "[control=ecmp]") // the third arm ran too
		if !static.Healthy {
			t.Errorf("%s: static arm unhealthy", topo)
		}
		if !adaptive.Healthy {
			t.Errorf("%s: ecmp+adaptive arm unhealthy (rebalancing failed)", topo)
		}
		if adaptive.GoodputGbps < 0.95*static.GoodputGbps {
			t.Errorf("%s: ecmp+adaptive goodput %.3f fell >5%% below static %.3f",
				topo, adaptive.GoodputGbps, static.GoodputGbps)
		}
	}
	// The 6x3 blind-hash arm demonstrates the collision the controller
	// solves (slim returns sharing an up-link with hashed forwards).
	if run("ctrl-modes-6x3[control=ecmp]").Healthy {
		t.Log("note: 6x3 blind-ECMP arm healthy at this scale (collision not provoked)")
	}
	if c := run("ctrl-modes-6x3[control=ecmp+adaptive]").Control; c == nil || c.Rebalances == 0 {
		t.Error("6x3 adaptive arm recorded no rebalance decisions")
	}

	// Demotion demo: transit parking demoted and restored, and the
	// rendering shows the timeline.
	demote := run("ctrl-demote").Control
	if demote == nil || demote.Demotions == 0 {
		t.Fatalf("demotion demo produced no demotions: %+v", demote)
	}
	if demote.Restorations == 0 {
		t.Error("demotion demo never restored transit parking")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ecmp+adaptive", "goodput gain", "demote", "restorations"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered suite missing %q:\n%s", want, out)
		}
	}
}
