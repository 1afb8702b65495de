package sim

import (
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// ProgramCounters is one attached program's report: the spec name, every
// named counter's in-window delta, and the end-of-run occupancy of its
// EXP/CLK state tables (parking slots plus compression contexts).
type ProgramCounters struct {
	// Switch names the hosting switch on multi-switch topologies ("" on
	// the testbed, which has one switch).
	Switch  string `json:"switch,omitempty"`
	Program string `json:"program"`
	// Counters holds the in-window delta of every counter the spec
	// declares, keyed by the spec's counter names.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Occupancy is the end-of-run occupied-cell count across the
	// program's meta state tables (orphan detection).
	Occupancy int `json:"occupancy"`
}

// programSpec is the section's table program for one placement (nil for
// the zero section): the built-in compression spec, or the custom Spec,
// with params setting split_port and merge_port to the topology's canonical
// ports, so a serialized spec written against one port layout runs
// anywhere.
func programSpec(p Program, split, merge rmt.PortID) (*prog.Spec, map[string]int64) {
	spec := p.Spec
	if p.Kind == "compress" {
		spec = prog.HeaderCompressSpec(prog.CompressParams{Slots: p.Slots, MaxExpiry: p.MaxExpiry})
	}
	params := make(map[string]int64, 2)
	if spec != nil {
		for name, port := range map[string]rmt.PortID{"split_port": split, "merge_port": merge} { //pp:nondeterministic-ok order-insensitive copy into a map
			if _, declared := spec.Params[name]; declared {
				params[name] = int64(port)
			}
		}
	}
	return spec, params
}

// programReport diffs one instance against its window-start snapshot.
// A nil snapshot (window never started) reports the cumulative values.
func programReport(swName string, inst *prog.Instance, snap map[string]uint64) ProgramCounters {
	pc := ProgramCounters{
		Switch:    swName,
		Program:   inst.Spec().Name,
		Counters:  inst.Counters(),
		Occupancy: inst.Occupied(prog.RoleMeta) + inst.Occupied(prog.RoleCompMeta),
	}
	for name, v := range pc.Counters { //pp:nondeterministic-ok order-insensitive update of a map in place
		pc.Counters[name] = v - snap[name]
	}
	return pc
}
