package core

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// Counters are the monitoring counters the prototype maintains (§5
// "We maintain eight counters for monitoring PayloadPark operation",
// plus the drop bookkeeping the evaluation relies on).
type Counters struct {
	// Splits counts successful Split operations (payload parked).
	Splits stats.Counter
	// Merges counts successful Merge operations (payload reattached).
	Merges stats.Counter
	// ExplicitDrops counts Explicit Drop packets that reclaimed a slot (§6.2.4).
	ExplicitDrops stats.Counter
	// Evictions counts payloads evicted by the expiry mechanism.
	Evictions stats.Counter
	// PrematureEvictions counts Merge attempts whose payload had already
	// been evicted (generation mismatch); these packets are dropped. Zero
	// premature evictions is the paper's functional-equivalence
	// prerequisite (§6.1).
	PrematureEvictions stats.Counter
	// SplitDisabledFromNF counts packets received from the NF server with
	// the ENB bit zero (Split was disabled for them).
	SplitDisabledFromNF stats.Counter
	// SmallPayloadSkips counts Split opportunities skipped because the
	// payload was smaller than the parked size (§5).
	SmallPayloadSkips stats.Counter
	// OccupiedSkips counts Split opportunities skipped because the probed
	// slot was occupied and not yet expired.
	OccupiedSkips stats.Counter
	// DemotedSkips counts Split opportunities skipped because the control
	// plane demoted the program (SetSplitEnabled(false)): the packet takes
	// the disabled-header path instead of parking.
	DemotedSkips stats.Counter

	// BadTagDrops counts merge-port packets whose tag CRC failed
	// validation; they are dropped before touching stateful memory (§3.2).
	BadTagDrops stats.Counter
	// StaleExplicitDrops counts Explicit Drop packets whose slot had
	// already been evicted or reused; nothing is reclaimed.
	StaleExplicitDrops stats.Counter
}

// String summarizes the counters on one line.
func (c *Counters) String() string {
	return fmt.Sprintf("splits=%d merges=%d explicitDrops=%d evictions=%d premature=%d enb0FromNF=%d smallSkips=%d occupiedSkips=%d demotedSkips=%d badTag=%d staleExplicit=%d",
		c.Splits.Value(), c.Merges.Value(), c.ExplicitDrops.Value(),
		c.Evictions.Value(), c.PrematureEvictions.Value(),
		c.SplitDisabledFromNF.Value(), c.SmallPayloadSkips.Value(),
		c.OccupiedSkips.Value(), c.DemotedSkips.Value(),
		c.BadTagDrops.Value(), c.StaleExplicitDrops.Value())
}

// RegisterObs registers every monitoring counter with the metrics
// registry under the given Prometheus label set (e.g.
// `switch="leaf0",program="0"`; empty for an unlabeled deployment).
// Registration only captures read closures: the counters themselves
// stay plain non-atomic fields, and snapshots must happen while the
// dataplane is quiescent.
func (c *Counters) RegisterObs(reg *obs.Registry, labels string) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	for _, m := range []struct {
		name string
		help string
		c    *stats.Counter
	}{
		{"pp_park_splits_total", "payload splits parked", &c.Splits},
		{"pp_park_merges_total", "parked payloads merged back", &c.Merges},
		{"pp_park_explicit_drops_total", "explicit-drop slot reclaims", &c.ExplicitDrops},
		{"pp_park_evictions_total", "payloads evicted by expiry", &c.Evictions},
		{"pp_park_premature_evictions_total", "merges that found their payload evicted", &c.PrematureEvictions},
		{"pp_park_split_disabled_total", "packets from the NF with split disabled", &c.SplitDisabledFromNF},
		{"pp_park_small_payload_skips_total", "splits skipped for undersized payloads", &c.SmallPayloadSkips},
		{"pp_park_occupied_skips_total", "splits skipped on occupied slots", &c.OccupiedSkips},
		{"pp_park_demoted_skips_total", "splits skipped while demoted", &c.DemotedSkips},
		{"pp_park_bad_tag_drops_total", "merge-port packets failing tag validation", &c.BadTagDrops},
		{"pp_park_stale_explicit_drops_total", "explicit drops on already-reclaimed slots", &c.StaleExplicitDrops},
	} {
		ctr := m.c
		reg.Counter(m.name+suffix, m.help, func() uint64 { return ctr.Value() })
	}
}
