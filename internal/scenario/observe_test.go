package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/sim"
)

func TestObserveJSONRoundTrip(t *testing.T) {
	sc := Scenario{
		Name:     "obs-rt",
		Topology: LeafSpine{Leaves: 4, Spines: 2},
		Parking:  Parking{Mode: sim.ParkEdge},
		Traffic:  Traffic{SendBps: 4e9},
		Observe:  Observe{Metrics: true, Trace: true},
		Opts:     RunOptions{Seed: 7},
	}
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"observe"`) {
		t.Fatalf("wire form lacks observe section: %s", b)
	}
	var back Scenario
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Observe != sc.Observe {
		t.Errorf("Observe round trip: got %+v, want %+v", back.Observe, sc.Observe)
	}
	// A zero Observe section vanishes from the wire form.
	sc.Observe = Observe{}
	b, err = json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "observe") {
		t.Errorf("zero Observe serialized: %s", b)
	}
}

func TestObserveMetricsSnapshot(t *testing.T) {
	sc := Scenario{
		Name:     "obs-metrics",
		Topology: Testbed{},
		Parking:  Parking{Mode: sim.ParkEdge},
		Traffic:  Traffic{SendBps: 4e9},
		Observe:  Observe{Metrics: true},
		Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("Observe.Metrics set but Report.Metrics is nil")
	}
	find := func(name string) (uint64, bool) {
		for _, c := range rep.Metrics.Counters {
			if c.Name == name {
				return c.Value, true
			}
		}
		return 0, false
	}
	for _, name := range []string{
		`pp_engine_events_total`,
		`pp_switch_rx_packets_total{switch="obs-metrics"}`,
		`pp_rmt_match_steps_total{switch="obs-metrics"}`,
		`pp_sink_delivered_total{sink="sink"}`,
	} {
		v, ok := find(name)
		if !ok {
			t.Errorf("snapshot lacks %s", name)
		} else if v == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	if _, ok := find(`pp_rmt_residual_conds_total{switch="obs-metrics"}`); !ok {
		t.Error("snapshot lacks pp_rmt_residual_conds_total")
	}
	// Metrics-only observation must not disturb the simulation.
	base := sc
	base.Observe = Observe{}
	baseRep, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodputGbps != baseRep.GoodputGbps || rep.Delivered != baseRep.Delivered {
		t.Errorf("metrics observation changed results: %v/%v vs %v/%v",
			rep.GoodputGbps, rep.Delivered, baseRep.GoodputGbps, baseRep.Delivered)
	}
	if rep.Trace != nil {
		t.Errorf("Trace non-nil without Observe.Trace")
	}
}

// TestRunTwiceByteEqual is the flight recorder's core promise: two runs
// of a 4x2 edge-parking leaf-spine scenario with the same seed produce
// the same Report and the same Chrome trace, byte for byte, because
// events are stamped with sim time and canonically ordered at export.
func TestRunTwiceByteEqual(t *testing.T) {
	run := func() (report, trace []byte) {
		t.Helper()
		sc := Scenario{
			Name:     "obs-trace",
			Topology: LeafSpine{Leaves: 4, Spines: 2},
			Parking:  Parking{Mode: sim.ParkEdge},
			Traffic:  Traffic{SendBps: 6e9},
			Control:  Control{Adaptive: true},
			Observe:  Observe{Metrics: true, Trace: true},
			Opts:     RunOptions{Seed: 3, WarmupNs: 1e6, MeasureNs: 4e6},
		}
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trace == nil {
			t.Fatal("Observe.Trace set but Report.Trace is nil")
		}
		if rep.Trace.Total() == 0 {
			t.Fatal("trace recorded no events")
		}
		var buf bytes.Buffer
		if err := rep.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		report, err = json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return report, buf.Bytes()
	}
	wantReport, want := run()
	gotReport, got := run()
	if !bytes.Equal(wantReport, gotReport) {
		t.Errorf("report diverged across two runs (%d vs %d bytes)", len(gotReport), len(wantReport))
	}
	if !bytes.Equal(want, got) {
		t.Errorf("trace diverged across two runs (%d vs %d bytes)", len(got), len(want))
	}
	// The export is valid JSON with the Chrome trace-event shape, and the
	// controller track made it in (Control.Adaptive ran a controller).
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("unexpected trace doc: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	var tracks []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			tracks = append(tracks, ev.Name)
		}
	}
	if len(tracks) == 0 {
		t.Error("no thread_name metadata events")
	}
}

func TestObserveValidation(t *testing.T) {
	live := Scenario{
		Topology: Live{Geometry: "chain"},
		Observe:  Observe{Trace: true},
	}
	if _, err := Run(context.Background(), live); err == nil || !strings.Contains(err.Error(), "Observe.Trace") {
		t.Errorf("live trace: err = %v, want Observe.Trace rejection", err)
	}
}
