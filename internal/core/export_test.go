package core

import (
	"sort"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// Cap returns the burst capacity.
func (b *FrameBurst) Cap() int { return len(b.slots) }

// ECMPMembers returns the current member names of dst's hash group,
// sorted (nil when no group is installed) — the telemetry view the
// control plane diffs against its desired membership.
func (s *Switch) ECMPMembers(dst packet.MAC) []string {
	g := s.fwd.find(macKey(&dst)).group
	if g == nil {
		return nil
	}
	names := make([]string, 0, len(g.ports))
	for name := range g.ports { //pp:nondeterministic-ok key collection; sorted before return
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParkBytes returns the per-packet payload bytes this configuration parks,
// which is also the minimum payload size eligible for Split (§5, §6.3.3).
func (c Config) ParkBytes() int {
	if c.Recirculate {
		return RecircParkBytes
	}
	return BaseParkBytes
}
