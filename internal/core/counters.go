package core

import (
	"fmt"
	"strings"

	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// Counters are the monitoring counters the prototype maintains (§5
// "We maintain eight counters for monitoring PayloadPark operation",
// plus the drop bookkeeping the evaluation relies on), keyed in JSON by
// the built-in spec's counter names.
type Counters struct {
	// Splits counts successful Split operations (payload parked).
	Splits stats.Counter `json:"splits"`
	// Merges counts successful Merge operations (payload reattached).
	Merges stats.Counter `json:"merges"`
	// Evictions counts payloads evicted by the expiry mechanism.
	Evictions stats.Counter `json:"evictions"`
	// PrematureEvictions counts Merge attempts whose payload had already
	// been evicted (generation mismatch); these packets are dropped. Zero
	// premature evictions is the paper's functional-equivalence
	// prerequisite (§6.1).
	PrematureEvictions stats.Counter `json:"premature_evictions"`
	// ExplicitDrops counts Explicit Drop packets that reclaimed a slot (§6.2.4).
	ExplicitDrops stats.Counter `json:"explicit_drops"`
	// OccupiedSkips counts Split opportunities skipped because the probed
	// slot was occupied and not yet expired.
	OccupiedSkips stats.Counter `json:"occupied_skips"`
	// SmallPayloadSkips counts Split opportunities skipped because the
	// payload was smaller than the parked size (§5).
	SmallPayloadSkips stats.Counter `json:"small_payload_skips"`
	// DemotedSkips counts Split opportunities skipped because the control
	// plane demoted the program (SetSplitEnabled(false)): the packet takes
	// the disabled-header path instead of parking.
	DemotedSkips stats.Counter `json:"demoted_skips"`
	// SplitDisabledFromNF counts packets received from the NF server with
	// the ENB bit zero (Split was disabled for them).
	SplitDisabledFromNF stats.Counter `json:"split_disabled_from_nf"`

	// BadTagDrops counts merge-port packets whose tag CRC failed
	// validation; they are dropped before touching stateful memory (§3.2).
	BadTagDrops stats.Counter `json:"bad_tag_drops"`
	// StaleExplicitDrops counts Explicit Drop packets whose slot had
	// already been evicted or reused; nothing is reclaimed.
	StaleExplicitDrops stats.Counter `json:"stale_explicit_drops"`
}

// parkCounters names each monitoring counter once: the built-in spec's
// counter that ticks it, its metric name and help text, and its field.
var parkCounters = [...]struct {
	spec, metric, help string
	field              func(*Counters) *stats.Counter
}{
	{prog.CtrSplits, "pp_park_splits_total", "payload splits parked", func(c *Counters) *stats.Counter { return &c.Splits }},
	{prog.CtrMerges, "pp_park_merges_total", "parked payloads merged back", func(c *Counters) *stats.Counter { return &c.Merges }},
	{prog.CtrExplicitDrops, "pp_park_explicit_drops_total", "explicit-drop slot reclaims", func(c *Counters) *stats.Counter { return &c.ExplicitDrops }},
	{prog.CtrEvictions, "pp_park_evictions_total", "payloads evicted by expiry", func(c *Counters) *stats.Counter { return &c.Evictions }},
	{prog.CtrPrematureEvictions, "pp_park_premature_evictions_total", "merges that found their payload evicted", func(c *Counters) *stats.Counter { return &c.PrematureEvictions }},
	{prog.CtrSplitDisabledFromNF, "pp_park_split_disabled_total", "packets from the NF with split disabled", func(c *Counters) *stats.Counter { return &c.SplitDisabledFromNF }},
	{prog.CtrSmallPayloadSkips, "pp_park_small_payload_skips_total", "splits skipped for undersized payloads", func(c *Counters) *stats.Counter { return &c.SmallPayloadSkips }},
	{prog.CtrOccupiedSkips, "pp_park_occupied_skips_total", "splits skipped on occupied slots", func(c *Counters) *stats.Counter { return &c.OccupiedSkips }},
	{prog.CtrDemotedSkips, "pp_park_demoted_skips_total", "splits skipped while demoted", func(c *Counters) *stats.Counter { return &c.DemotedSkips }},
	{prog.CtrBadTagDrops, "pp_park_bad_tag_drops_total", "merge-port packets failing tag validation", func(c *Counters) *stats.Counter { return &c.BadTagDrops }},
	{prog.CtrStaleExplicitDrops, "pp_park_stale_explicit_drops_total", "explicit drops on already-reclaimed slots", func(c *Counters) *stats.Counter { return &c.StaleExplicitDrops }},
}

// bindings maps the built-in spec's counter names onto the fields, so the
// installed spec ticks them without any copying.
func (c *Counters) bindings() map[string]*stats.Counter {
	m := make(map[string]*stats.Counter, len(parkCounters))
	for _, pc := range parkCounters {
		m[pc.spec] = pc.field(c)
	}
	return m
}

// Add adds every counter of o to c.
func (c *Counters) Add(o Counters) {
	for _, pc := range parkCounters {
		pc.field(c).Add(pc.field(&o).Value())
	}
}

// String summarizes the counters on one line, by spec counter name.
func (c *Counters) String() string {
	var b strings.Builder
	for i, pc := range parkCounters {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", pc.spec, pc.field(c).Value())
	}
	return b.String()
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
	for _, pc := range parkCounters {
		ctr := pc.field(c)
		reg.Counter(pc.metric+suffix, pc.help, func() uint64 { return ctr.Value() })
	}
}
