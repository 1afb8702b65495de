package nf

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// Firewall cycle-cost model: a fixed parse/dispatch cost plus a per-rule
// probe cost. The paper's firewall "linearly probes through a list of
// blacklisted IP addresses" (§6.1), so cost grows with the rules actually
// probed before a match (all of them for accepted packets).
const (
	firewallBaseCycles    = 60
	firewallPerRuleCycles = 12
)

// FirewallRule blacklists an IPv4 source prefix.
type FirewallRule struct {
	Prefix packet.IPv4Addr
	// Bits is the prefix length (0..32).
	Bits int
}

// matches reports whether ip falls inside the rule's prefix.
func (r FirewallRule) matches(ip packet.IPv4Addr) bool {
	if r.Bits <= 0 {
		return true
	}
	mask := ^uint32(0) << (32 - uint32(r.Bits))
	return ip.Uint32()&mask == r.Prefix.Uint32()&mask
}

// Firewall is the paper's ACL firewall: packets whose source IP matches a
// blacklisted prefix are dropped; everything else is forwarded. Rules are
// probed linearly.
type Firewall struct {
	rules   []FirewallRule
	dropped uint64
}

// NewFirewall builds a firewall with the given blacklist. The paper's
// three-NF chain uses 20 rules; the two-NF chain uses one (§6.1).
func NewFirewall(rules []FirewallRule) *Firewall {
	return &Firewall{rules: append([]FirewallRule(nil), rules...)}
}

// Name implements NF.
func (f *Firewall) Name() string { return "FW" }

// Dropped returns how many packets the ACL dropped.
func (f *Firewall) Dropped() uint64 { return f.dropped }

// Process implements NF.
func (f *Firewall) Process(pkt *packet.Packet) (Verdict, uint64) {
	src := pkt.IP.Src
	for i, r := range f.rules {
		if r.matches(src) {
			f.dropped++
			return Drop, firewallBaseCycles + uint64(i+1)*firewallPerRuleCycles
		}
	}
	return Forward, firewallBaseCycles + uint64(len(f.rules))*firewallPerRuleCycles
}

// BlacklistFraction builds a single-rule blacklist that drops roughly the
// given fraction of a uniformly distributed source-IP space inside
// 10.0.0.0/8, which is how the Fig. 12 experiment "var[ies] the proportion
// of blacklisted IP addresses to control the drop rate at the firewall".
// Supported fractions are powers of two down to 1/256 (prefix lengths
// 9..16); fraction 0 yields an empty list.
func BlacklistFraction(fraction float64) []FirewallRule {
	if fraction <= 0 {
		return nil
	}
	// Choose prefix bits so that 2^-(bits-8) ~= fraction within /8 space.
	bits := 8
	f := 1.0
	for f > fraction && bits < 16 {
		bits++
		f /= 2
	}
	return []FirewallRule{{Prefix: packet.IPv4Addr{10, 0, 0, 0}, Bits: bits}}
}

// String describes the firewall.
func (f *Firewall) String() string {
	return fmt.Sprintf("FW(%d rules)", len(f.rules))
}
