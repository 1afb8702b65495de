package prog

import (
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// Param returns the resolved compile-time parameter value.
func (in *Instance) Param(name string) (int64, bool) {
	v, ok := in.prog.params[name]
	return v, ok
}

// Counter returns the counter registered under name, or nil.
func (in *Instance) Counter(name string) *stats.Counter { return in.counters[name] }

// Register returns the register installed under role, or nil.
func (in *Instance) Register(role string) *rmt.Register { return in.regs[role] }

// Param returns a declared parameter's value under Compile's overrides.
func (p *Compiled) Param(name string) (int64, bool) {
	v, ok := p.params[name]
	return v, ok
}

// BuiltinSpecs returns representative instances of the three built-in
// programs, parameterized with the geometry core uses (20 base +
// 28 recirculation payload blocks of 8 bytes, distinct split/merge
// ports). The lint, oracle, fuzz and fusion tests iterate these to cover
// every table the package can emit.
func BuiltinSpecs() []*Spec {
	park := ParkParams{
		Slots: 8192, MaxExpiry: 1, SplitPort: 1, MergePort: 2,
		BoundaryOffset: 42, Recirculate: true,
		Blocks: 48, BaseBlocks: 20, BlockBytes: 8, MaxClock: 1 << 16,
	}
	return []*Spec{
		PayloadParkSpec(park),
		HeaderCompressSpec(CompressParams{CompressPort: 1, RestorePort: 2}),
		ParkCompressSpec(park, 0),
	}
}
