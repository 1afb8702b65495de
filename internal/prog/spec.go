// Package prog turns switch programs into data. A Spec declares everything
// core.Program used to hard-code in Go: the parser geometry, the stage-local
// registers, and the match-action tables whose entries name their match
// conditions and actions from internal/rmt's registered vocabulary. Compile
// resolves a Spec once; Install places the result on a pipe against the
// same hardware budgets the rmt layer enforces, as often as there are
// switches to load; each Instance exposes its own named runtime parameters
// and counters to the control plane.
//
// The payoff is the paper's own thesis applied to this codebase: PayloadPark
// is *just a P4 program*, so policy variants — ROHC-style header
// compression, parking plus compression — are new JSON, not new Go.
// PayloadParkSpec, HeaderCompressSpec and ParkCompressSpec are the built-in
// specs; serialized copies load back through the same path user-authored
// files take (ppbench -program).
package prog

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/payloadpark/payloadpark/internal/rmt"
)

// ParamVal is an integer field of a Spec that is either a literal or a
// "$name" reference into the spec's Params map. References keep one scenario
// knob (port number, slot count) consistent across every table that uses it;
// Install binds the port parameters, split_port and merge_port (Ports).
type ParamVal struct {
	ref string
	lit int64
}

// Lit returns a literal value.
func Lit(v int64) ParamVal { return ParamVal{lit: v} }

// Ref returns a reference to the named spec parameter.
func Ref(name string) ParamVal { return ParamVal{ref: name} }

// MarshalJSON encodes a literal as a number and a reference as "$name".
func (v ParamVal) MarshalJSON() ([]byte, error) {
	if v.ref != "" {
		return json.Marshal("$" + v.ref)
	}
	return json.Marshal(v.lit)
}

// UnmarshalJSON decodes a number or a "$name" reference.
func (v *ParamVal) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		if !strings.HasPrefix(s, "$") || len(s) < 2 {
			return fmt.Errorf("prog: parameter reference %q must be \"$name\"", s)
		}
		*v = ParamVal{ref: s[1:]}
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*v = ParamVal{lit: n}
	return nil
}

// resolve returns the concrete value under params; ok is false for a
// reference to a parameter params does not hold.
func (v ParamVal) resolve(params map[string]int64) (n int64, ok bool) {
	if v.ref == "" {
		return v.lit, true
	}
	n, ok = params[v.ref]
	return n, ok
}

// Spec is a declarative switch program: what the switch used to build in
// Go, as data. Params are compile-time integers (ports, slot counts,
// geometry); Runtime are the named control-plane knobs actions read per
// packet (SetMaxExpiry and SetSplitEnabled become writes to these).
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Parser declares the payload-block extraction geometry and the ports
	// whose inbound frames carry a PayloadPark header. Blocks == 0 means the
	// program parks no payload (header compression does not).
	Parser ParserSpec `json:"parser"`

	// PHVBits is the packet-header-vector budget the program's headers and
	// metadata consume, validated against the pipe capacity at load.
	PHVBits int `json:"phv_bits"`

	Params  map[string]int64  `json:"params,omitempty"`
	Runtime map[string]uint32 `json:"runtime,omitempty"`

	Registers []RegisterSpec `json:"registers,omitempty"`
	Tables    []TableSpec    `json:"tables,omitempty"`

	// LintAllow waives Lint findings by "code:object" key (for example
	// "unused-param:params/debug_port"). The waiver lives in the spec so
	// a reviewed exception travels with the file it excuses; a waiver
	// that matches no finding is itself reported.
	LintAllow []string `json:"lint_allow,omitempty"`
}

// ParksPayload reports whether the program's parser extracts payload
// blocks — i.e. whether loading it would park payload, like the built-in
// PayloadPark program does. Callers use it to reject double-parking a
// pipe that already runs the built-in program.
func (s *Spec) ParksPayload() bool {
	v, ok := s.Parser.Blocks.resolve(s.Params)
	return ok && v > 0
}

// UsesRecircPipe reports whether any register or table targets the
// recirculation pipe.
func (s *Spec) UsesRecircPipe() bool {
	for i := range s.Registers {
		if s.Registers[i].Pipe == "recirc" {
			return true
		}
	}
	for i := range s.Tables {
		if s.Tables[i].Pipe == "recirc" {
			return true
		}
	}
	return false
}

// ParserSpec is the parser geometry of a program.
type ParserSpec struct {
	Blocks     ParamVal   `json:"blocks"`
	BlockBytes ParamVal   `json:"block_bytes"`
	ParkOffset ParamVal   `json:"park_offset"`
	PPPorts    []ParamVal `json:"pp_ports,omitempty"`
}

// RegisterSpec declares one stage-local register array. Role is the handle
// tables bind it by and Instance reports it under; Name, for diagnostics,
// may embed "$param" references, expanded at Install's ports.
type RegisterSpec struct {
	Role  string   `json:"role,omitempty"`
	Name  string   `json:"name"`
	Pipe  string   `json:"pipe,omitempty"` // "ingress" (default) or "recirc"
	Stage int      `json:"stage"`
	Width ParamVal `json:"width"`
	Cells ParamVal `json:"cells"`
}

// ResourcesSpec declares a table's per-stage hardware consumption: the rmt
// layer's own declaration, which carries the JSON form.
type ResourcesSpec = rmt.Resources

// TableSpec declares one match-action table: its stage, the register role it
// binds (one stateful access per packet), and its entries in match order
// (first match fires).
type TableSpec struct {
	Name      string        `json:"name"`
	Pipe      string        `json:"pipe,omitempty"` // "ingress" (default) or "recirc"
	Stage     int           `json:"stage"`
	Register  string        `json:"register,omitempty"` // role of the bound register
	Resources ResourcesSpec `json:"resources"`
	Entries   []EntrySpec   `json:"entries"`
}

// EntrySpec is one match-action entry: conditions that AND together, an
// action from the rmt vocabulary, and the action's parameter, counter and
// drop-reason bindings.
type EntrySpec struct {
	Name     string              `json:"name"`
	Match    []CondSpec          `json:"match,omitempty"`
	Action   string              `json:"action"`
	Params   map[string]ParamVal `json:"params,omitempty"`
	Counters map[string]string   `json:"counters,omitempty"` // action role -> counter name
	Reasons  map[string]string   `json:"reasons,omitempty"`  // action role -> drop reason
}

// CondSpec is one match condition; see rmt.Cond for the field and op
// vocabulary.
type CondSpec struct {
	Field string   `json:"field"`
	Op    string   `json:"op,omitempty"`
	Value ParamVal `json:"value"`
}
