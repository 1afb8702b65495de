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
