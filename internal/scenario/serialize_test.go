package scenario

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	cases := []Scenario{
		{
			Name:     "leafspine-ctrl",
			Topology: LeafSpine{Leaves: 6, Spines: 3, FailLink: true, FailAtNs: 5e6, RerouteNs: 1e6},
			Parking:  Parking{Mode: sim.ParkEdge, Slots: 4096, MaxExpiry: 2},
			Control:  Control{ECMP: true, Adaptive: true, PeriodNs: 5e5, Conservative: 12},
			Traffic:  Traffic{SendBps: 4.5e9, Flows: 2048},
			Opts:     RunOptions{Seed: 7, WarmupNs: 2e6, MeasureNs: 8e6},
		},
		{
			Name:     "testbed-fixed",
			Topology: Testbed{LinkBps: 40e9, NFLinkLossRate: 0.01},
			Traffic:  Traffic{SendBps: 9e9, FixedSize: 384},
			Opts:     RunOptions{Quick: true},
		},
		{
			Name:     "multiserver",
			Topology: MultiServer{Servers: 4},
			Parking:  Parking{Mode: sim.ParkEdge},
			Server:   sim.ServerModel{FreqHz: 2.4e9, Cores: 8},
		},
		{
			// Zero-config topology: the envelope carries only the kind.
			Topology: Testbed{},
		},
	}
	for _, want := range cases {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", want.Name, err)
		}
		var got Scenario
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", want.Name, b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip drifted:\nwant %+v\n got %+v\nwire %s", want.Name, want, got, b)
		}
	}
}

func TestScenarioJSONWireFormat(t *testing.T) {
	b, err := json.Marshal(Scenario{
		Name:     "wire",
		Topology: LeafSpine{Leaves: 6, Spines: 3},
		Parking:  Parking{Mode: sim.ParkEdge},
		Control:  Control{ECMP: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"wire","topology":{"kind":"leafspine","config":{"leaves":6,"spines":3}},` +
		`"parking":{"mode":"edge"},"control":{"ecmp":true}}`
	if string(b) != want {
		t.Errorf("wire format drifted:\n got %s\nwant %s", b, want)
	}
}

func TestScenarioJSONFixedDistConverts(t *testing.T) {
	b, err := json.Marshal(Scenario{
		Topology: Testbed{},
		Traffic:  Traffic{SendBps: 1e9, Dist: trafficgen.Fixed(512)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got Scenario
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Traffic.FixedSize != 512 || got.Traffic.Dist != nil {
		t.Errorf("Fixed dist did not convert: %+v", got.Traffic)
	}
	// The datacenter mix is the deserialized default on testbed/leafspine.
	if _, err := json.Marshal(Scenario{Topology: Testbed{}, Traffic: Traffic{Dist: trafficgen.Datacenter{}}}); err != nil {
		t.Errorf("datacenter dist on testbed should serialize as the default: %v", err)
	}
	// A stale FixedSize must not survive a Datacenter marshal: in memory
	// Dist wins, so the wire form must not flip the run to Fixed.
	b, err = json.Marshal(Scenario{Topology: Testbed{},
		Traffic: Traffic{Dist: trafficgen.Datacenter{}, FixedSize: 512}})
	if err != nil {
		t.Fatal(err)
	}
	var stale Scenario
	if err := json.Unmarshal(b, &stale); err != nil {
		t.Fatal(err)
	}
	if stale.Traffic.FixedSize != 0 || stale.Traffic.SizeDist() != nil {
		t.Errorf("stale FixedSize leaked into the wire form: %+v (wire %s)", stale.Traffic, b)
	}
}

func TestScenarioJSONRejectsUnserializable(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"nil-topology", Scenario{}, "nil Topology"},
		{"chain", Scenario{Topology: Testbed{}, Chain: func() *nf.Chain { return nil }}, "Chain"},
		{"source", Scenario{Topology: Testbed{}, Traffic: Traffic{Source: func() trafficgen.Source { return nil }}}, "Source"},
		{"ms-datacenter", Scenario{Topology: MultiServer{}, Traffic: Traffic{Dist: trafficgen.Datacenter{}}}, "no wire form"},
	}
	for _, c := range cases {
		if _, err := json.Marshal(c.s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}

	for bad, want := range map[string]string{
		`{"topology":{"kind":"ring"}}`: `unknown topology kind "ring"`,
		`{"name":"x"}`:                 "missing topology.kind",
		// Every socket reader takes up to wire.DefaultBurst frames a read: a
		// file still setting the old knob is an error, not silently ignored.
		`{"topology":{"kind":"live","config":{"burst":64}}}`: `scenario: live config: json: unknown field "burst"`,
		// A multi-server run takes its core count from the server section.
		`{"topology":{"kind":"multiserver","config":{"cores":8}}}`: `scenario: multiserver config: json: unknown field "cores"`,
		// Knobs every run takes at one value are gone: links run 500 ns and
		// 1 MB, traces keep obs.DefaultEventCap events, the controller backs
		// off on any premature eviction, resumes the switch's own Expiry
		// after three calm ticks, and a custom spec's ports are the topology's.
		`{"topology":{"kind":"testbed","config":{"switch_queue_bytes":1}}}`:     `scenario: testbed config: json: unknown field "switch_queue_bytes"`,
		`{"topology":{"kind":"testbed","config":{"prop_ns":1}}}`:                `scenario: testbed config: json: unknown field "prop_ns"`,
		`{"topology":{"kind":"leafspine","config":{"prop_ns":1}}}`:              `scenario: leafspine config: json: unknown field "prop_ns"`,
		`{"topology":{"kind":"leafspine","config":{"queue_bytes":1}}}`:          `scenario: leafspine config: json: unknown field "queue_bytes"`,
		`{"topology":{"kind":"testbed"},"observe":{"trace_event_cap":64}}`:      `json: unknown field "trace_event_cap"`,
		`{"topology":{"kind":"testbed"},"control":{"aggressive":2}}`:            `json: unknown field "aggressive"`,
		`{"topology":{"kind":"testbed"},"control":{"calm_ticks":2}}`:            `json: unknown field "calm_ticks"`,
		`{"topology":{"kind":"testbed"},"control":{"premature_threshold":1}}`:   `json: unknown field "premature_threshold"`,
		`{"topology":{"kind":"testbed"},"program":{"params":{"split_port":1}}}`: `json: unknown field "params"`,
	} {
		var s Scenario
		if err := json.Unmarshal([]byte(bad), &s); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("unmarshal %s: err = %v, want %q", bad, err, want)
		}
	}
}

// TestScenarioFileRuns is the -scenario front end's contract: a scenario
// deserialized from JSON runs exactly like the in-memory original.
func TestScenarioFileRuns(t *testing.T) {
	orig := Scenario{
		Name:     "from-file",
		Topology: LeafSpine{Leaves: 4, Spines: 2},
		Parking:  Parking{Mode: sim.ParkEdge},
		Traffic:  Traffic{SendBps: 2e9},
		Opts:     RunOptions{Seed: 3, WarmupNs: 1e6, MeasureNs: 3e6},
	}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Scenario
	if err := json.Unmarshal(b, &loaded); err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	cj, _ := json.Marshal(c)
	if string(aj) != string(cj) {
		t.Errorf("deserialized scenario ran differently:\n%s\n%s", aj, cj)
	}
}
