// Named action vocabulary.
//
// Historically the PayloadPark program (internal/core) baked its dataplane
// behavior into Go closures: every rule's match predicate and action body was
// hand-written code, so every policy variant was a new code path. This file
// extracts those primitives into a registry of named actions and a small
// condition language, so a table program becomes *data*: a list of entries,
// each naming its match conditions and an action with parameters. The
// internal/prog package compiles such specs onto a Pipeline; this layer is
// the instruction set it targets.
//
// The vocabulary mirrors what a Tofino stateful ALU plus VLIW action unit
// can express: one register read-modify-write, PHV field moves, and header
// add/remove — nothing a real RMT stage could not do.
package rmt

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// HdrScratchBytes sizes PHV.HdrScratch: IPv4 (20 B) + UDP (8 B), the
// header-compression context the register budget can hold.
const HdrScratchBytes = packet.IPv4HeaderLen + packet.UDPHeaderLen

// Env resolves the runtime bindings of a table program while its entries are
// being compiled: named runtime parameters (control-plane knobs read by
// actions on every packet) and named counters. internal/prog's Instance
// implements it.
type Env interface {
	// RuntimeParam returns the storage cell of a named runtime parameter.
	// Actions load it per packet, so the control plane can change it between
	// packets without reinstalling the program.
	RuntimeParam(name string) (*uint32, bool)
	// BoundCounter returns the counter registered under name.
	BoundCounter(name string) (*stats.Counter, bool)
}

// metaIndexByName maps the well-known metadata word names (the constants
// above) to their indexes for the "meta.<name>" condition fields.
var metaIndexByName = map[string]int{
	"tbl_idx":       MetaTableIndex,
	"clk":           MetaClock,
	"pp_enabled":    MetaPPEnabled,
	"payload_ok":    MetaPayloadOK,
	"split_claimed": MetaSplitClaimed,
	"park_bytes":    MetaParkBytes,
	"park_offset":   MetaParkOffset,
	"comp_tbl_idx":  MetaCompTableIndex,
	"comp_clk":      MetaCompClock,
	"comp_claimed":  MetaCompClaimed,
	"comp_enabled":  MetaCompEnabled,
}

// MetaIndex resolves the <name> of a "meta.<name>" condition field — a
// well-known word name or a decimal index below MetaWords — to its index.
// CompileConds and prog's spec linter share it.
func MetaIndex(name string) (int, bool) {
	if idx, ok := metaIndexByName[name]; ok {
		return idx, true
	}
	n, err := strconv.Atoi(name)
	return n, err == nil && n >= 0 && n < MetaWords
}

// ActionArgs carries an entry's compile-time bindings into an action
// factory: integer parameters, counters by role, and drop-reason strings by
// role. All are resolved before install; the hot path never sees a map.
type ActionArgs struct {
	Params   map[string]int64
	Counters map[string]*stats.Counter
	Reasons  map[string]string
}

// Int returns parameter name or def when absent.
func (a ActionArgs) Int(name string, def int64) int64 {
	if v, ok := a.Params[name]; ok {
		return v
	}
	return def
}

// NeedInt returns parameter name, erroring when the entry omitted it.
func (a ActionArgs) NeedInt(name string) (int64, error) {
	v, ok := a.Params[name]
	if !ok {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	return v, nil
}

// NeedCounter returns the counter bound to role, erroring when absent: an
// action that increments a counter cannot run without one.
func (a ActionArgs) NeedCounter(role string) (*stats.Counter, error) {
	c, ok := a.Counters[role]
	if !ok || c == nil {
		return nil, fmt.Errorf("missing required counter %q", role)
	}
	return c, nil
}

// Reason returns the drop-reason string bound to role, or def.
func (a ActionArgs) Reason(role, def string) string {
	if s, ok := a.Reasons[role]; ok {
		return s
	}
	return def
}

// ActionFactory builds an action body from its declarative arguments.
// Factories validate arguments once at install time and return a closure
// that runs per packet with everything pre-resolved.
type ActionFactory func(env Env, args ActionArgs) (func(*Ctx), error)

var actionRegistry = map[string]ActionFactory{}

// RegisterAction adds a named action to the vocabulary. Registering a
// duplicate name panics: the name is the contract specs compile against.
func RegisterAction(name string, f ActionFactory) {
	if _, dup := actionRegistry[name]; dup {
		panic(fmt.Sprintf("rmt: action %q registered twice", name))
	}
	actionRegistry[name] = f
}

// BuildAction compiles the named action with the given arguments.
func BuildAction(name string, env Env, args ActionArgs) (func(*Ctx), error) {
	f, ok := actionRegistry[name]
	if !ok {
		return nil, fmt.Errorf("rmt: unknown action %q (known: %s)", name, strings.Join(ActionNames(), ", "))
	}
	body, err := f(env, args)
	if err != nil {
		return nil, fmt.Errorf("rmt: action %q: %w", name, err)
	}
	return body, nil
}

// ActionNames lists the registered vocabulary, sorted.
func ActionNames() []string {
	names := make([]string, 0, len(actionRegistry))
	for n := range actionRegistry { //pp:nondeterministic-ok key collection; sorted before return
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// expClk unpacks an 8-byte EXP/CLK register cell: the remaining-expiry
// count and the generation clock of the occupying packet (Alg. 1).
func expClk(cell []byte) (exp, clk uint32) {
	return binary.BigEndian.Uint32(cell[0:4]), binary.BigEndian.Uint32(cell[4:8])
}

func setExpClk(cell []byte, exp, clk uint32) {
	binary.BigEndian.PutUint32(cell[0:4], exp)
	binary.BigEndian.PutUint32(cell[4:8], clk)
}

func runtimeParam(env Env, name string) (*uint32, error) {
	cell, ok := env.RuntimeParam(name)
	if !ok {
		return nil, fmt.Errorf("missing required runtime parameter %q", name)
	}
	return cell, nil
}

// claimProbe is the shared EXP/CLK slot-claim RMW (Alg. 1 lines 5-12): age
// the occupant by one, count an eviction when it hits zero, and claim the
// slot when free. Both payload parking and header compression run it.
func claimProbe(c *Ctx, idx int, maxExpiry *uint32, clkNow uint32, evict *stats.Counter) (claimed bool) {
	c.RMW(idx, func(cell []byte) {
		exp, oldClk := expClk(cell)
		if exp >= 1 {
			exp--
			if exp == 0 {
				evict.Inc()
			}
		}
		if exp == 0 {
			setExpClk(cell, *maxExpiry, clkNow)
			claimed = true
		} else {
			setExpClk(cell, exp, oldClk)
		}
	})
	return claimed
}

// releaseProbe is the shared EXP/CLK release RMW (Alg. 2): when the slot is
// occupied and the stored clock matches the tag's, free and zero the slot.
func releaseProbe(c *Ctx, idx int, tagClk uint16) (matched bool) {
	c.RMW(idx, func(cell []byte) {
		exp, clk := expClk(cell)
		if exp != 0 && clk == uint32(tagClk) {
			matched = true
			setExpClk(cell, 0, 0)
		}
	})
	return matched
}

func init() {
	// advance_index: bump the round-robin table index register and publish
	// it to a metadata word (Alg. 1 line 2). Params: slots (required),
	// meta_out (default meta.tbl_idx).
	RegisterAction("advance_index", func(env Env, a ActionArgs) (func(*Ctx), error) {
		slots, err := a.NeedInt("slots")
		if err != nil {
			return nil, err
		}
		if slots <= 0 {
			return nil, fmt.Errorf("slots must be positive, got %d", slots)
		}
		metaOut := int(a.Int("meta_out", MetaTableIndex))
		if metaOut < 0 || metaOut >= MetaWords {
			return nil, fmt.Errorf("meta_out %d out of range [0,%d)", metaOut, MetaWords)
		}
		return func(c *Ctx) {
			c.RMW(0, func(cell []byte) {
				ti := (binary.BigEndian.Uint64(cell) + 1) % uint64(slots)
				binary.BigEndian.PutUint64(cell, ti)
				c.PHV.SetMeta(metaOut, uint32(ti))
			})
		}, nil
	})

	// advance_clock: bump the generation clock register, skipping 0 (the
	// "slot free" sentinel), and publish it (Alg. 1 line 3). Params:
	// max_clock (required), meta_out (default meta.clk).
	RegisterAction("advance_clock", func(env Env, a ActionArgs) (func(*Ctx), error) {
		maxClock, err := a.NeedInt("max_clock")
		if err != nil {
			return nil, err
		}
		if maxClock <= 1 {
			return nil, fmt.Errorf("max_clock must exceed 1, got %d", maxClock)
		}
		metaOut := int(a.Int("meta_out", MetaClock))
		if metaOut < 0 || metaOut >= MetaWords {
			return nil, fmt.Errorf("meta_out %d out of range [0,%d)", metaOut, MetaWords)
		}
		return func(c *Ctx) {
			c.RMW(0, func(cell []byte) {
				clk := (binary.BigEndian.Uint64(cell) + 1) % uint64(maxClock)
				if clk == 0 { // clock 0 means "slot free"; skip it
					clk = 1
				}
				binary.BigEndian.PutUint64(cell, clk)
				c.PHV.SetMeta(metaOut, uint32(clk))
			})
		}, nil
	})

	// add_disabled_header: attach a PP header with every field zero so the
	// merge hop sees an explicit "nothing was parked" marker (§5's
	// small-payload and demoted split paths). Counters: count (required).
	RegisterAction("add_disabled_header", func(env Env, a ActionArgs) (func(*Ctx), error) {
		count, err := a.NeedCounter("count")
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) {
			c.PHV.Pkt.SetPP(packet.PPHeader{}) // hdr.pp = 0; setValid()
			count.Inc()
		}, nil
	})

	// strip_disabled_header: remove a disabled PP header on the merge path.
	// Counters: count (required).
	RegisterAction("strip_disabled_header", func(env Env, a ActionArgs) (func(*Ctx), error) {
		count, err := a.NeedCounter("count")
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) {
			c.PHV.Pkt.PP = nil
			c.PHV.Pkt.PPOffset = 0
			count.Inc()
		}, nil
	})

	// drop: mark the packet for drop with a reason and count it. Reasons:
	// why (required). Counters: count (required).
	RegisterAction("drop", func(env Env, a ActionArgs) (func(*Ctx), error) {
		why := a.Reason("why", "")
		if why == "" {
			return nil, fmt.Errorf("missing required reason %q", "why")
		}
		count, err := a.NeedCounter("count")
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) {
			c.PHV.MarkDrop(why)
			count.Inc()
		}, nil
	})

	// park_claim: Alg. 1's split-side slot claim. Probes the EXP/CLK cell at
	// meta.tbl_idx; on a claim, seals a PP tag and attaches an enabled
	// header; otherwise attaches a disabled header. Params: park_bytes,
	// park_offset (required). Runtime: max_expiry. Counters: claim, evict,
	// skip (required).
	RegisterAction("park_claim", func(env Env, a ActionArgs) (func(*Ctx), error) {
		parkBytes, err := a.NeedInt("park_bytes")
		if err != nil {
			return nil, err
		}
		parkOffset, err := a.NeedInt("park_offset")
		if err != nil {
			return nil, err
		}
		maxExpiry, err := runtimeParam(env, "max_expiry")
		if err != nil {
			return nil, err
		}
		claim, err := a.NeedCounter("claim")
		if err != nil {
			return nil, err
		}
		evict, err := a.NeedCounter("evict")
		if err != nil {
			return nil, err
		}
		skip, err := a.NeedCounter("skip")
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) {
			phv := c.PHV
			ti := phv.GetMeta(MetaTableIndex)
			clkNow := phv.GetMeta(MetaClock)
			if claimProbe(c, int(ti), maxExpiry, clkNow, evict) {
				tag := packet.Tag{TableIndex: uint16(ti), Clock: uint16(clkNow)}.Seal()
				phv.Pkt.SetPP(packet.PPHeader{Enabled: true, Op: packet.PPOpMerge, Tag: tag})
				phv.Pkt.PPOffset = int(parkOffset)
				phv.SetMeta(MetaSplitClaimed, 1)
				phv.SetMeta(MetaParkBytes, uint32(parkBytes))
				phv.SetMeta(MetaParkOffset, uint32(parkOffset))
				claim.Inc()
			} else {
				phv.Pkt.SetPP(packet.PPHeader{})
				phv.Pkt.PPOffset = int(parkOffset)
				skip.Inc()
			}
		}, nil
	})

	// park_release: Alg. 2's merge-side validate-and-release. On a clock
	// match, frees the slot, strips the PP header, and prepares merge block
	// views for the payload-table load MATs; on a mismatch the payload was
	// prematurely evicted and the packet drops. Params: slots, blocks,
	// block_bytes, park_bytes, park_offset (required). Counters: merge,
	// premature (required). Reasons: premature (required).
	RegisterAction("park_release", func(env Env, a ActionArgs) (func(*Ctx), error) {
		slots, err := a.NeedInt("slots")
		if err != nil {
			return nil, err
		}
		if slots <= 0 {
			return nil, fmt.Errorf("slots must be positive, got %d", slots)
		}
		blocks, err := a.NeedInt("blocks")
		if err != nil {
			return nil, err
		}
		blockBytes, err := a.NeedInt("block_bytes")
		if err != nil {
			return nil, err
		}
		parkBytes, err := a.NeedInt("park_bytes")
		if err != nil {
			return nil, err
		}
		parkOffset, err := a.NeedInt("park_offset")
		if err != nil {
			return nil, err
		}
		merge, err := a.NeedCounter("merge")
		if err != nil {
			return nil, err
		}
		premature, err := a.NeedCounter("premature")
		if err != nil {
			return nil, err
		}
		why := a.Reason("premature", "")
		if why == "" {
			return nil, fmt.Errorf("missing required reason %q", "premature")
		}
		return func(c *Ctx) {
			phv := c.PHV
			tag := phv.Pkt.PP.Tag
			if releaseProbe(c, int(tag.TableIndex)%int(slots), tag.Clock) {
				phv.SetMeta(MetaPPEnabled, 1)
				phv.SetMeta(MetaTableIndex, uint32(tag.TableIndex))
				phv.SetMeta(MetaParkBytes, uint32(parkBytes))
				phv.SetMeta(MetaParkOffset, uint32(parkOffset))
				phv.Pkt.PP = nil
				phv.Pkt.PPOffset = 0
				phv.PrepareMergeBlocks(int(blocks), int(blockBytes), int(parkOffset))
				merge.Inc()
			} else {
				phv.MarkDrop(why)
				premature.Inc()
			}
		}, nil
	})

	// slot_reclaim: the explicit-drop fast path (§6.2.4): an NF returns a
	// header-only packet whose payload should be discarded, so validate the
	// tag's clock and free the slot without merging. Params: slots
	// (required). Counters: hit, miss (required). Reasons: hit, miss
	// (required).
	RegisterAction("slot_reclaim", func(env Env, a ActionArgs) (func(*Ctx), error) {
		slots, err := a.NeedInt("slots")
		if err != nil {
			return nil, err
		}
		if slots <= 0 {
			return nil, fmt.Errorf("slots must be positive, got %d", slots)
		}
		hit, err := a.NeedCounter("hit")
		if err != nil {
			return nil, err
		}
		miss, err := a.NeedCounter("miss")
		if err != nil {
			return nil, err
		}
		hitWhy := a.Reason("hit", "")
		missWhy := a.Reason("miss", "")
		if hitWhy == "" || missWhy == "" {
			return nil, fmt.Errorf("missing required reasons %q and %q", "hit", "miss")
		}
		return func(c *Ctx) {
			phv := c.PHV
			tag := phv.Pkt.PP.Tag
			if releaseProbe(c, int(tag.TableIndex)%int(slots), tag.Clock) {
				hit.Inc()
				phv.MarkDrop(hitWhy)
			} else {
				miss.Inc()
				phv.MarkDrop(missWhy)
			}
		}, nil
	})

	// block_store: copy payload block k from the PHV into the cell at
	// meta.tbl_idx (the split-side payload park). Params: block (required).
	RegisterAction("block_store", func(env Env, a ActionArgs) (func(*Ctx), error) {
		block, err := a.NeedInt("block")
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) {
			phv := c.PHV
			c.RMW(int(phv.GetMeta(MetaTableIndex)), func(cell []byte) {
				copy(cell, phv.Blocks[block])
			})
		}, nil
	})

	// block_load: copy the cell at meta.tbl_idx into payload block view k
	// and zero the cell (the merge-side payload restore). Params: block
	// (required).
	RegisterAction("block_load", func(env Env, a ActionArgs) (func(*Ctx), error) {
		block, err := a.NeedInt("block")
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) {
			phv := c.PHV
			c.RMW(int(phv.GetMeta(MetaTableIndex)), func(cell []byte) {
				copy(phv.Blocks[block], cell)
				clear(cell)
			})
		}, nil
	})

	// recirculate: request another pipeline pass for this packet.
	RegisterAction("recirculate", func(env Env, a ActionArgs) (func(*Ctx), error) {
		return func(c *Ctx) {
			c.PHV.Recirc = true
		}, nil
	})

	// compress_claim: the header-compression analogue of park_claim. Probes
	// the context-table EXP/CLK cell at meta.comp_tbl_idx; on a claim, seals
	// a CR tag and attaches the compression header (the deparser then elides
	// IPv4+L4 from the wire). On a miss the packet simply travels
	// uncompressed. Runtime: max_expiry. Counters: claim, evict, skip
	// (required).
	RegisterAction("compress_claim", func(env Env, a ActionArgs) (func(*Ctx), error) {
		maxExpiry, err := runtimeParam(env, "max_expiry")
		if err != nil {
			return nil, err
		}
		claim, err := a.NeedCounter("claim")
		if err != nil {
			return nil, err
		}
		evict, err := a.NeedCounter("evict")
		if err != nil {
			return nil, err
		}
		skip, err := a.NeedCounter("skip")
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) {
			phv := c.PHV
			ti := phv.GetMeta(MetaCompTableIndex)
			clkNow := phv.GetMeta(MetaCompClock)
			if claimProbe(c, int(ti), maxExpiry, clkNow, evict) {
				tag := packet.Tag{TableIndex: uint16(ti), Clock: uint16(clkNow)}.Seal()
				phv.Pkt.SetCR(packet.CRHeader{Proto: phv.Pkt.IP.Protocol, Tag: tag})
				phv.SetMeta(MetaCompClaimed, 1)
				claim.Inc()
			} else {
				skip.Inc()
			}
		}, nil
	})

	// restore_validate: the header-compression analogue of park_release.
	// Validates the CR tag's clock against the context table; on a match,
	// frees the context and flags the restore; on a mismatch the context was
	// evicted and the packet cannot be reconstructed, so it drops. Params:
	// slots (required). Counters: restore, stale (required). Reasons: stale
	// (required).
	RegisterAction("restore_validate", func(env Env, a ActionArgs) (func(*Ctx), error) {
		slots, err := a.NeedInt("slots")
		if err != nil {
			return nil, err
		}
		if slots <= 0 {
			return nil, fmt.Errorf("slots must be positive, got %d", slots)
		}
		restore, err := a.NeedCounter("restore")
		if err != nil {
			return nil, err
		}
		stale, err := a.NeedCounter("stale")
		if err != nil {
			return nil, err
		}
		why := a.Reason("stale", "")
		if why == "" {
			return nil, fmt.Errorf("missing required reason %q", "stale")
		}
		return func(c *Ctx) {
			phv := c.PHV
			tag := phv.Pkt.CR.Tag
			if releaseProbe(c, int(tag.TableIndex)%int(slots), tag.Clock) {
				phv.SetMeta(MetaCompEnabled, 1)
				phv.SetMeta(MetaCompTableIndex, uint32(tag.TableIndex))
				restore.Inc()
			} else {
				phv.MarkDrop(why)
				stale.Inc()
			}
		}, nil
	})

	// header_store: serialize the packet's IPv4+L4 headers and store bytes
	// [off, off+len) of that image into the cell at meta.comp_tbl_idx. Two
	// entries split the 28-byte context across two registers to respect the
	// 16-byte cell-width ceiling. Params: off, len (required).
	RegisterAction("header_store", func(env Env, a ActionArgs) (func(*Ctx), error) {
		off, err := a.NeedInt("off")
		if err != nil {
			return nil, err
		}
		length, err := a.NeedInt("len")
		if err != nil {
			return nil, err
		}
		if off < 0 || length <= 0 || off+length > HdrScratchBytes {
			return nil, fmt.Errorf("window [%d,%d) outside header scratch [0,%d)", off, off+length, HdrScratchBytes)
		}
		return func(c *Ctx) {
			phv := c.PHV
			var hdr [HdrScratchBytes]byte
			phv.Pkt.IP.Marshal(hdr[:packet.IPv4HeaderLen])
			if phv.Pkt.UDP != nil {
				phv.Pkt.UDP.Marshal(hdr[packet.IPv4HeaderLen:])
			}
			c.RMW(int(phv.GetMeta(MetaCompTableIndex)), func(cell []byte) {
				copy(cell, hdr[off:off+length])
			})
		}, nil
	})

	// header_load: copy the cell at meta.comp_tbl_idx into bytes
	// [off, off+len) of the PHV header scratch and zero the cell. Params:
	// off, len (required).
	RegisterAction("header_load", func(env Env, a ActionArgs) (func(*Ctx), error) {
		off, err := a.NeedInt("off")
		if err != nil {
			return nil, err
		}
		length, err := a.NeedInt("len")
		if err != nil {
			return nil, err
		}
		if off < 0 || length <= 0 || off+length > HdrScratchBytes {
			return nil, fmt.Errorf("window [%d,%d) outside header scratch [0,%d)", off, off+length, HdrScratchBytes)
		}
		return func(c *Ctx) {
			phv := c.PHV
			c.RMW(int(phv.GetMeta(MetaCompTableIndex)), func(cell []byte) {
				copy(phv.HdrScratch[off:off+length], cell[:length])
				clear(cell)
			})
		}, nil
	})

	// decompress_apply: reparse the header scratch back into the packet's
	// IPv4+L4 structs and detach the CR header, completing the restore. The
	// scratch bytes came from header_store's Marshal, so the unmarshal can
	// only fail if the context table was corrupted. Reasons: corrupt
	// (optional, default "restore context corrupt"). No register access.
	RegisterAction("decompress_apply", func(env Env, a ActionArgs) (func(*Ctx), error) {
		why := a.Reason("corrupt", "restore context corrupt")
		return func(c *Ctx) {
			phv := c.PHV
			if err := phv.Pkt.IP.Unmarshal(phv.HdrScratch[:packet.IPv4HeaderLen]); err != nil {
				phv.MarkDrop(why)
				return
			}
			if phv.Pkt.IP.Protocol == packet.IPProtoUDP {
				if phv.Pkt.UDP == nil {
					phv.Pkt.UDP = new(packet.UDP)
				}
				phv.Pkt.TCP = nil
				phv.Pkt.UDP.Unmarshal(phv.HdrScratch[packet.IPv4HeaderLen:HdrScratchBytes])
			}
			phv.Pkt.CR = nil
			phv.Pkt.Eth.EtherType = packet.EtherTypeIPv4
		}, nil
	})
}
