package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Scenario serialization: the Topology sum type is encoded as a tagged
// envelope — {"kind": "leafspine", "config": {...}} — so a Scenario
// round-trips through JSON and the `ppbench -scenario file.json` front
// end can run serialized scenarios. Hooks that would change the run's
// results (Chain, Traffic.Source) have no wire form; MarshalJSON rejects
// them loudly instead of dropping them. Unknown fields are rejected on
// decode, so a typoed knob fails instead of silently running defaults.

// topologyWire is the tagged topology envelope.
type topologyWire struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config,omitempty"`
}

// scenarioWire mirrors Scenario with the envelope in Topology's place.
// Sections are pointers so zero-value sections vanish from the output
// and absent sections unmarshal to zero values.
type scenarioWire struct {
	Name     string           `json:"name,omitempty"`
	Topology topologyWire     `json:"topology"`
	Parking  *Parking         `json:"parking,omitempty"`
	Program  *Program         `json:"program,omitempty"`
	Control  *Control         `json:"control,omitempty"`
	Traffic  *Traffic         `json:"traffic,omitempty"`
	Server   *sim.ServerModel `json:"server,omitempty"`
	Observe  *Observe         `json:"observe,omitempty"`
	Opts     *RunOptions      `json:"opts,omitempty"`
}

// MarshalJSON implements json.Marshaler. It errors on scenarios that
// cannot round-trip: a nil topology, and the Chain / Traffic.Source hooks
// (whose loss would change simulation results).
func (s Scenario) MarshalJSON() ([]byte, error) {
	if s.Topology == nil {
		return nil, errf("marshal: nil Topology")
	}
	if s.Chain != nil {
		return nil, errf("marshal: Chain hooks are not serializable")
	}
	if s.Traffic.Source != nil {
		return nil, errf("marshal: Traffic.Source hooks are not serializable")
	}
	// Size distributions serialize through Traffic.FixedSize: a Fixed dist
	// converts, the datacenter mix is every topology's default except
	// multiserver's, and anything else has no wire form.
	switch d := s.Traffic.Dist.(type) {
	case nil:
	case trafficgen.Fixed:
		s.Traffic.Dist = nil
		s.Traffic.FixedSize = int(d)
	case trafficgen.Datacenter:
		if _, ms := s.Topology.(MultiServer); ms {
			return nil, errf("marshal: multiserver with a Datacenter dist has no wire form (the serialized default is Fixed(384))")
		}
		s.Traffic.Dist = nil // the deserialized default
		// A stale FixedSize would win on the wire (SizeDist prefers Dist
		// only in memory); clear it so the round trip keeps the mix.
		s.Traffic.FixedSize = 0
	default:
		return nil, errf("marshal: Traffic.Dist %T is not serializable (use FixedSize)", d)
	}
	cfg, err := json.Marshal(s.Topology)
	if err != nil {
		return nil, err
	}
	w := scenarioWire{
		Name:     s.Name,
		Topology: topologyWire{Kind: s.Topology.Kind(), Config: cfg},
	}
	if s.Parking != (Parking{}) {
		w.Parking = &s.Parking
	}
	if !s.Program.IsZero() {
		w.Program = &s.Program
	}
	if s.Control != (Control{}) {
		w.Control = &s.Control
	}
	if s.Traffic.SendBps != 0 || s.Traffic.FixedSize != 0 || s.Traffic.Flows != 0 {
		w.Traffic = &s.Traffic
	}
	if s.Server != (sim.ServerModel{}) {
		w.Server = &s.Server
	}
	if s.Observe != (Observe{}) {
		w.Observe = &s.Observe
	}
	if s.Opts.Seed != 0 || s.Opts.Quick || s.Opts.WarmupNs != 0 || s.Opts.MeasureNs != 0 {
		w.Opts = &s.Opts
	}
	return json.Marshal(w)
}

// strictUnmarshal decodes with unknown fields disallowed, so a typoed
// knob in a scenario file errors instead of silently running defaults.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// UnmarshalJSON implements json.Unmarshaler, dispatching the topology
// envelope to the concrete type by kind. Unknown fields anywhere in the
// document are an error.
func (s *Scenario) UnmarshalJSON(b []byte) error {
	var w scenarioWire
	if err := strictUnmarshal(b, &w); err != nil {
		return err
	}
	out := Scenario{Name: w.Name}
	cfg := w.Topology.Config
	if cfg == nil {
		cfg = json.RawMessage("{}")
	}
	switch w.Topology.Kind {
	case "testbed":
		var t Testbed
		if err := strictUnmarshal(cfg, &t); err != nil {
			return fmt.Errorf("scenario: testbed config: %w", err)
		}
		out.Topology = t
	case "multiserver":
		var t MultiServer
		if err := strictUnmarshal(cfg, &t); err != nil {
			return fmt.Errorf("scenario: multiserver config: %w", err)
		}
		out.Topology = t
	case "leafspine":
		var t LeafSpine
		if err := strictUnmarshal(cfg, &t); err != nil {
			return fmt.Errorf("scenario: leafspine config: %w", err)
		}
		out.Topology = t
	case "live":
		var t Live
		if err := strictUnmarshal(cfg, &t); err != nil {
			return fmt.Errorf("scenario: live config: %w", err)
		}
		out.Topology = t
	case "":
		return errf("unmarshal: missing topology.kind (want \"testbed\", \"multiserver\", \"leafspine\", or \"live\")")
	default:
		return errf("unmarshal: unknown topology kind %q (want \"testbed\", \"multiserver\", \"leafspine\", or \"live\")", w.Topology.Kind)
	}
	if w.Parking != nil {
		out.Parking = *w.Parking
	}
	if w.Program != nil {
		out.Program = *w.Program
	}
	if w.Control != nil {
		out.Control = *w.Control
	}
	if w.Traffic != nil {
		out.Traffic = *w.Traffic
	}
	if w.Server != nil {
		out.Server = *w.Server
	}
	if w.Observe != nil {
		out.Observe = *w.Observe
	}
	if w.Opts != nil {
		out.Opts = *w.Opts
	}
	*s = out
	return nil
}
