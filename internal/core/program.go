package core

import (
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// metaCellBytes is the width of a metadata table cell: the Tofino stateful
// ALU operates on paired 32-bit halves, which the paper uses to hold the
// Expiry countdown and the generation clock side by side (Fig. 4).
const metaCellBytes = 8

// Drop reasons recorded by the program. The simulator and tests key on
// these strings.
const (
	DropPrematureEviction = "premature eviction"
	DropExplicitDrop      = "explicit drop"
	DropStaleExplicitDrop = "stale explicit drop"
	DropBadTag            = "bad tag crc"
	// DropTruncatedMerge: the tag matched and the slot was freed, but the
	// NF had cut the payload shorter than the boundary offset.
	DropTruncatedMerge = rmt.DropTruncatedMerge
	// DropNoParkRegion: a table program moved a payload block of a packet
	// whose payload the parser had not lifted.
	DropNoParkRegion = rmt.DropNoParkRegion
)

// Program is one installed PayloadPark instance: the packet tagger, the
// metadata table, and the payload table registers, wired into a pipe (and
// optionally a recirculation pipe) per Algorithms 1 and 2.
//
// Since the declarative-program refactor the tables themselves are data: a
// prog.PayloadParkSpec compiled by CompilePark and installed on the pipe by
// Switch.AttachSpec. Program remains the typed control-plane facade over
// that instance — its runtime knobs (SetMaxExpiry, SetSplitEnabled) write
// the spec's named runtime parameters, and its Counters alias the spec's
// named counters.
type Program struct {
	cfg Config
	// C exposes the monitoring counters (§5). The installed spec's named
	// counters are bound directly to these fields, so they tick without any
	// copying.
	C Counters

	inst *prog.Instance
}

// Config returns the program's configuration.
func (p *Program) Config() Config { return p.cfg }

// MaxExpiry returns the live Expiry threshold used for new claims.
func (p *Program) MaxExpiry() uint32 {
	v, _ := p.inst.Runtime(prog.RTMaxExpiry)
	return v
}

// SetMaxExpiry retunes the Expiry threshold for future claims (already-
// claimed slots keep their countdown), the control-plane knob behind the
// adaptive eviction policy of §7. It lifts 0 to 1 and steps a value that
// would reissue evicted tags (Config.MaxExpiry) one down; a valid Config
// never reissues at 1.
func (p *Program) SetMaxExpiry(exp uint32) {
	exp = max(exp, 1)
	if p.cfg.reissues(exp) {
		exp--
	}
	p.inst.SetRuntime(prog.RTMaxExpiry, exp)
}

// Instance returns the loaded table program behind the facade: its
// runtime parameters, counters and tables.
func (p *Program) Instance() *prog.Instance { return p.inst }

// SetSplitEnabled gates new Split claims — the control-plane demotion
// knob. Disabling split sends eligible packets down the disabled-header
// path (counted in DemotedSkips) while merges keep reclaiming the
// payloads parked before the demotion, so no state strands.
func (p *Program) SetSplitEnabled(on bool) {
	v := uint32(0)
	if on {
		v = 1
	}
	p.inst.SetRuntime(prog.RTSplitEnabled, v)
}

// Occupancy counts occupied metadata slots, off the dataplane: reports,
// gauges and the controller read table pressure here.
func (p *Program) Occupancy() int { return p.inst.Occupied(prog.RoleMeta) }
