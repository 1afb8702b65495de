package core

import (
	"fmt"
	"sort"

	"github.com/payloadpark/payloadpark/internal/maglev"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// ECMP hash-group next-hop tables: a destination MAC maps to a group of
// candidate egress ports instead of a single port, and each flow picks a
// member by hashing its 5-tuple through a Maglev lookup table (the same
// consistent-hashing construction the paper's load-balancer NF uses).
// Maglev membership makes control-plane rebalancing minimally disruptive:
// removing one member remaps only the flows that were mapped to it, so
// parked-payload state pinned to the surviving paths is untouched.
//
// Groups are a control-plane surface: the fabric controller rewrites
// membership on link failure or congestion via SetECMPRoute. Like the
// drop counters, group tables are not safe to rewrite while a parallel
// batch is in flight; the discrete-event simulator is single-threaded.

// ecmpTableSize is the per-group Maglev table size. Groups hold a handful
// of uplinks, so the small prime the LB uses is plenty.
const ecmpTableSize = maglev.DefaultTableSize

// ecmpGroup is one installed hash group.
type ecmpGroup struct {
	tbl   *maglev.Table
	ports map[string]rmt.PortID
}

// SetECMPRoute installs (or atomically replaces) a hash-group route for
// dst: flows to dst spread across the member ports, keyed by member name.
// Member names are the consistent-hashing identity — keep them stable
// across membership changes (e.g. "spine2") so that shrinking a group
// only remaps the flows whose member disappeared. A group takes
// precedence over an AddL2Route entry for the same MAC.
func (s *Switch) SetECMPRoute(dst packet.MAC, members map[string]rmt.PortID) error {
	if len(members) == 0 {
		return fmt.Errorf("core: ECMP group for %v has no members", dst)
	}
	names := make([]string, 0, len(members))
	for name := range members { //pp:nondeterministic-ok key collection; sorted before any use
		names = append(names, name)
	}
	sort.Strings(names)
	ports := make(map[string]rmt.PortID, len(members))
	for _, name := range names {
		port := members[name]
		if int(port) >= NumPorts {
			return fmt.Errorf("core: ECMP member %q: invalid port %d", name, port)
		}
		ports[name] = port
	}
	tbl, err := maglev.New(names, ecmpTableSize)
	if err != nil {
		return err
	}
	s.fwd.entry(dst).group = &ecmpGroup{tbl: tbl, ports: ports}
	return nil
}

// FlowHash hashes a 5-tuple for ECMP member selection (inline FNV-1a so
// the per-packet hot path allocates nothing). The hash is a pure function
// of the flow key, so a flow's path assignment is deterministic across
// runs and sweep worker counts.
func FlowHash(ft packet.FiveTuple) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, b := range ft.SrcIP {
		mix(b)
	}
	for _, b := range ft.DstIP {
		mix(b)
	}
	mix(byte(ft.SrcPort >> 8))
	mix(byte(ft.SrcPort))
	mix(byte(ft.DstPort >> 8))
	mix(byte(ft.DstPort))
	mix(byte(ft.Protocol))
	return h
}
