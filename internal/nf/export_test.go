package nf

import (
	"github.com/payloadpark/payloadpark/internal/packet"
)

// ReverseLookup maps an external port back to the original flow, as the
// reverse path of a real NAT would.
func (n *NAT) ReverseLookup(extPort uint16) (packet.FiveTuple, bool) {
	ft, ok := n.reverse[extPort]
	return ft, ok
}

// PrefixLen returns the inspected payload prefix length.
func (d *SlimDPI) PrefixLen() int { return d.prefixLen }

// NumRules returns the ACL size.
func (f *Firewall) NumRules() int { return len(f.rules) }
