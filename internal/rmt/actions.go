// Named action vocabulary.
//
// A table program is data: a list of entries, each naming its match
// conditions and an action with parameters (internal/prog compiles such
// specs onto a Pipeline; this file is the instruction set it targets). As
// in P4, each action's signature is declared once — the Action descriptors
// below — and everything that needs to know it reads the declaration: Bind
// checks an entry's bindings against it, prog checks the bound register and
// the liveness of metadata words against it, the README's vocabulary table
// is rendered from it, and Build receives only values that passed.
//
// The vocabulary is what a Tofino stateful ALU plus VLIW action unit can
// express: one register read-modify-write, PHV field moves, and header
// add/remove — nothing a real RMT stage could not do.
package rmt

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// HdrScratchBytes sizes PHV.HdrScratch: IPv4 (20 B) + UDP (8 B), the
// header-compression context the register budget can hold.
const HdrScratchBytes = packet.IPv4HeaderLen + packet.UDPHeaderLen

// metaNames are the well-known metadata word names (the constants in
// rmt.go) for the "meta.<name>" condition fields, by word index.
var metaNames = [MetaWords]string{
	MetaTableIndex:     "tbl_idx",
	MetaClock:          "clk",
	MetaPPEnabled:      "pp_enabled",
	MetaPayloadOK:      "payload_ok",
	MetaSplitClaimed:   "split_claimed",
	MetaParkBytes:      "park_bytes",
	MetaParkOffset:     "park_offset",
	MetaCompTableIndex: "comp_tbl_idx",
	MetaCompClock:      "comp_clk",
	MetaCompClaimed:    "comp_claimed",
	MetaCompEnabled:    "comp_enabled",
}

// Action declares one action of the vocabulary: what an entry may bind to
// it, what its body touches per packet, and the Build that turns checked
// bindings into that body — or, for a block move, the Move the pipe
// executes in a body's place.
type Action struct {
	Name string
	Doc  string // one line, for the README's vocabulary table

	Ints     []IntParam // compile-time integer parameters
	Counters []string   // counter roles; every role is required
	Reasons  []string   // drop-reason roles; every role is required
	Runtime  []string   // runtime parameters loaded per packet

	Reads  []int       // metadata words the body reads
	Writes []MetaWrite // metadata words the body may write
	// Needs is the header the body dereferences unchecked: the entry's
	// match must prove it present (Cond.Proves).
	Needs Header
	// Reg is what the body demands of the table's bound register.
	Reg RegUse
	// Recirculates marks the action that requests another pipeline pass.
	Recirculates bool
	// Move, when set, makes the action a block move of that direction
	// (move.go): the block is the "block" parameter, the width Reg's bytes,
	// and there is no Build.
	Move MoveDir

	// Build returns the per-packet body. Every key it asks Args for was
	// declared above and checked by Bind, so it cannot fail; the body runs
	// with everything pre-resolved and never sees a map.
	Build func(a Args) func(*Ctx)
}

// IntParam declares one integer parameter: required unless Optional (then
// Default applies), at least Min and — when Max is set — at most Max less
// the value of the Less parameter. Parser ties it to the program's parser
// geometry.
type IntParam struct {
	Name     string
	Optional bool
	Default  int64
	Min, Max int64
	Less     string
	Parser   ParserRel
}

// ParserRel relates an integer parameter to the parser geometry of the
// program it is bound in: merge-side actions must rebuild exactly the bytes
// the parser lifted, and the deparser trusts the sizes they publish.
type ParserRel uint8

const (
	Free         ParserRel = iota
	BlockIndex             // 0 <= v < parser blocks
	SameAsParser           // v == the parser quantity of the parameter's name (Scope.geometry)
)

// MetaWrite declares one metadata word a body may write: Word, or the word
// the integer parameter Via names. Below, when set, names the integer
// parameter that bounds the value — the write publishes a register index in
// [0, Below) — and is empty for flags and sizes.
type MetaWrite struct {
	Word  int
	Via   string
	Below string
}

// Header is a header an action body may dereference.
type Header uint8

const (
	NoHeader Header = iota
	HeaderPP
	HeaderCR
)

// RegIndex is how an action's one RMW picks its register cell.
type RegIndex uint8

const (
	NoRegister RegIndex = iota
	IndexZero           // cell 0: the taggers' one-cell counters
	IndexMeta           // the metadata word RegUse.Word, published by an earlier table
	IndexTag            // the header tag's TableIndex modulo the "slots" parameter
)

// ParserBlockBytes as RegUse.BytesOf says the RMW moves one parser payload
// block.
const ParserBlockBytes = "parser.block_bytes"

// RegUse declares an action's stateful access: which cell its RMW picks
// and how many leading cell bytes it moves — Bytes, or the value of the
// integer parameter (or ParserBlockBytes) BytesOf names.
type RegUse struct {
	Index   RegIndex
	Word    int
	Bytes   int
	BytesOf string
}

// Scope is the program-level context an entry's bindings are checked
// against: the parser geometry and the runtime parameters the program
// declares.
type Scope struct {
	Blocks, BlockBytes, ParkOffset int64
	Runtime                        map[string]uint32
}

// geometry returns the parser quantity a SameAsParser parameter must equal.
func (sc Scope) geometry(name string) int64 {
	switch name {
	case "blocks":
		return sc.Blocks
	case "block_bytes":
		return sc.BlockBytes
	case "park_bytes":
		return sc.Blocks * sc.BlockBytes
	case "park_offset":
		return sc.ParkOffset
	}
	panic(fmt.Sprintf("rmt: the parser has no quantity %q", name))
}

// ActionArgs is what one table entry binds to its action, by key: integer
// parameters, counter names by role, and drop-reason strings by role.
type ActionArgs struct {
	Params   map[string]int64
	Counters map[string]string
	Reasons  map[string]string
}

// Binding is one entry's bindings after Bind checked them, held in the
// descriptor's declaration order.
type Binding struct {
	Action   *Action
	ints     []int64
	counters []string
	reasons  []string
	regBytes int64
}

// Args hands an action's Build its checked bindings by declared key.
// Asking for a key the descriptor does not declare is a bug in the
// vocabulary and panics at install time.
type Args struct {
	*Binding
	ctrs  []*stats.Counter // by Action.Counters
	cells []*uint32        // by Action.Runtime
}

// LookupAction returns the named action's descriptor. The name is the
// contract specs compile against, so no two descriptors share one
// (TestActionNamesUnique).
func LookupAction(name string) (*Action, error) {
	if i := slices.IndexFunc(builtinActions, func(d *Action) bool { return d.Name == name }); i >= 0 {
		return builtinActions[i], nil
	}
	return nil, fmt.Errorf("unknown action %q (known: %s)", name, strings.Join(ActionNames(), ", "))
}

// ActionNames lists the vocabulary, sorted.
func ActionNames() []string {
	names := make([]string, len(builtinActions))
	for i, d := range builtinActions {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// undeclared returns the smallest key of m outside declared, so a bad entry
// always reports the same key first.
func undeclared[V any](m map[string]V, declared []string) (key string, found bool) {
	for k := range m { //pp:nondeterministic-ok reduced to the minimum key
		if !slices.Contains(declared, k) && (!found || k < key) {
			key, found = k, true
		}
	}
	return key, found
}

// bindRoles returns the values got binds to the declared roles, in role
// order: every role bound, and no key that is not a role.
func (d *Action) bindRoles(kind string, roles []string, got map[string]string) ([]string, error) {
	if k, bad := undeclared(got, roles); bad {
		return nil, fmt.Errorf("%s role %q is not declared by action %s", kind, k, d.Name)
	}
	out := make([]string, len(roles))
	for i, role := range roles {
		if out[i] = got[role]; out[i] == "" {
			return nil, fmt.Errorf("missing required %s %q", kind, role)
		}
	}
	return out, nil
}

// Bind is the one check of an entry's bindings against the descriptor: it
// rejects a key the descriptor does not declare, a missing required key, a
// value out of range or at odds with the parser geometry, and a runtime
// parameter the program does not declare.
func (d *Action) Bind(args ActionArgs, sc Scope) (b *Binding, err error) {
	b = &Binding{Action: d, ints: make([]int64, len(d.Ints))}
	declared := 0
	for i, p := range d.Ints {
		v, ok := args.Params[p.Name]
		if !ok && !p.Optional {
			return nil, fmt.Errorf("missing required parameter %q", p.Name)
		} else if !ok {
			v = p.Default
		} else {
			declared++
		}
		b.ints[i] = v
	}
	if declared != len(args.Params) { // some key is not a declared parameter: name it
		names := make([]string, len(d.Ints))
		for i, p := range d.Ints {
			names[i] = p.Name
		}
		k, _ := undeclared(args.Params, names)
		return nil, fmt.Errorf("parameter %q is not declared by action %s", k, d.Name)
	}
	for i := range d.Ints {
		if err := d.Ints[i].check(b, sc); err != nil {
			return nil, err
		}
	}
	if b.counters, err = d.bindRoles("counter", d.Counters, args.Counters); err != nil {
		return nil, err
	}
	if b.reasons, err = d.bindRoles("reason", d.Reasons, args.Reasons); err != nil {
		return nil, err
	}
	for _, name := range d.Runtime {
		if _, ok := sc.Runtime[name]; !ok {
			return nil, fmt.Errorf("missing required runtime parameter %q", name)
		}
	}
	switch of := d.Reg.BytesOf; of {
	case "":
		b.regBytes = int64(d.Reg.Bytes)
	case ParserBlockBytes:
		b.regBytes = sc.BlockBytes
	default:
		b.regBytes = b.Int(of)
	}
	return b, nil
}

// check holds parameter p's bound value to its declared range and parser
// relation.
func (p *IntParam) check(b *Binding, sc Scope) error {
	v, hi := b.Int(p.Name), p.Max
	if p.Less != "" {
		hi -= b.Int(p.Less)
	}
	if v < p.Min || p.Max != 0 && v > hi {
		return fmt.Errorf("parameter %q = %d outside %s", p.Name, v, p.rangeText())
	}
	switch p.Parser {
	case BlockIndex:
		if v >= sc.Blocks {
			return fmt.Errorf("parameter %q = %d outside the parser's blocks [0, %d)", p.Name, v, sc.Blocks)
		}
	case SameAsParser:
		if want := sc.geometry(p.Name); v != want {
			return fmt.Errorf("parameter %q = %d must equal the parser's %s (%d)", p.Name, v, p.Name, want)
		}
	}
	return nil
}

// rangeText renders the parameter's static range, for errors and the
// README.
func (p *IntParam) rangeText() string {
	hi := "+Inf)"
	if p.Max != 0 {
		hi = fmt.Sprintf("%d]", p.Max)
		if p.Less != "" {
			hi = fmt.Sprintf("%d - %s]", p.Max, p.Less)
		}
	}
	return fmt.Sprintf("[%d, %s", p.Min, hi)
}

// at returns the position of name among an action's declared keys of one
// kind, panicking on a key the descriptor does not declare.
func (d *Action) at(i int, kind, name string) int {
	if i < 0 {
		panic(fmt.Sprintf("rmt: action %q declares no %s %q", d.Name, kind, name))
	}
	return i
}

// Int returns the bound value of a declared integer parameter.
func (b *Binding) Int(name string) int64 {
	d := b.Action
	return b.ints[d.at(slices.IndexFunc(d.Ints, func(p IntParam) bool { return p.Name == name }), "parameter", name)]
}

// Reason returns the drop reason bound to a declared role.
func (b *Binding) Reason(role string) string {
	d := b.Action
	return b.reasons[d.at(slices.Index(d.Reasons, role), "reason role", role)]
}

// RegBytes returns how many leading cell bytes the entry's one register
// access moves (RegUse.Bytes, or what BytesOf resolved to).
func (b *Binding) RegBytes() int64 { return b.regBytes }

// CounterNames lists the counter names the entry bound, in role order.
func (b *Binding) CounterNames() []string { return b.counters }

// WriteWord resolves a declared metadata write: the word it lands in and,
// when the write publishes a register index, the exclusive bound of that
// index (0 otherwise).
func (b *Binding) WriteWord(w MetaWrite) (word int, below int64) {
	word = w.Word
	if w.Via != "" {
		word = int(b.Int(w.Via))
	}
	if w.Below != "" {
		below = b.Int(w.Below)
	}
	return word, below
}

// CheckRegister holds the table's bound register (bound false when the
// table binds none) to what the action declared: a register to access,
// cells wide enough for the bytes one RMW moves, and — for tag-indexed
// access — at least "slots" cells. Metadata-indexed access is bounded by
// the tables that publish the word, which only the program knows.
func (b *Binding) CheckRegister(bound bool, width, cells int64) error {
	reg := b.Action.Reg
	switch {
	case reg.Index == NoRegister:
		return nil
	case !bound:
		return fmt.Errorf("action %s accesses a register but the table binds none", b.Action.Name)
	case b.regBytes > width:
		of := ""
		if reg.BytesOf != "" {
			of = fmt.Sprintf(" (%s)", reg.BytesOf)
		}
		return fmt.Errorf("action %s moves %d B per cell%s but the bound register is %d B wide", b.Action.Name, b.regBytes, of, width)
	case reg.Index == IndexTag && b.Int("slots") > cells:
		return fmt.Errorf("parameter %q = %d indexes past the bound register's %d cells", "slots", b.Int("slots"), cells)
	}
	return nil
}

// Build resolves the binding's runtime parameters to their storage cells
// and its counters by name, and returns the action's per-packet body — or,
// for a block move, no body and the move to declare on the rule. The body
// loads a cell on every packet, so the control plane can change a runtime
// parameter between packets without reinstalling the program.
func (b *Binding) Build(runtime map[string]*uint32, counters map[string]*stats.Counter) (func(*Ctx), Move, error) {
	d := b.Action
	if d.Move != NoMove {
		return nil, Move{Dir: d.Move, Block: int(b.Int("block")), Bytes: int(b.RegBytes())}, nil
	}
	a := Args{Binding: b, ctrs: make([]*stats.Counter, len(b.counters)), cells: make([]*uint32, len(d.Runtime))}
	for i, name := range b.counters {
		if a.ctrs[i] = counters[name]; a.ctrs[i] == nil {
			return nil, Move{}, fmt.Errorf("rmt: action %s: no counter %q", d.Name, name)
		}
	}
	for i, name := range d.Runtime {
		if a.cells[i] = runtime[name]; a.cells[i] == nil {
			return nil, Move{}, fmt.Errorf("rmt: action %s: no runtime parameter %q", d.Name, name)
		}
	}
	return d.Build(a), Move{}, nil
}

// Counter returns the counter bound to a declared role.
func (a Args) Counter(role string) *stats.Counter {
	d := a.Action
	return a.ctrs[d.at(slices.Index(d.Counters, role), "counter role", role)]
}

// Runtime returns the storage cell of a declared runtime parameter.
func (a Args) Runtime(name string) *uint32 {
	d := a.Action
	return a.cells[d.at(slices.Index(d.Runtime, name), "runtime parameter", name)]
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

// Shared parameter declarations.
var (
	slotsParam = IntParam{Name: "slots", Min: 1}
	// The header-image window [off, off+len) lies inside the header scratch.
	offParam = IntParam{Name: "off", Max: HdrScratchBytes - 1}
	lenParam = IntParam{Name: "len", Min: 1, Max: HdrScratchBytes, Less: "off"}
)

func metaOut(def int64) IntParam {
	return IntParam{Name: "meta_out", Optional: true, Default: def, Max: MetaWords - 1}
}

var builtinActions = []*Action{
	{
		Name:   "advance_index",
		Doc:    "bump the round-robin table index register and publish it (Alg. 1 line 2)",
		Ints:   []IntParam{slotsParam, metaOut(MetaTableIndex)},
		Writes: []MetaWrite{{Via: "meta_out", Below: "slots"}},
		Reg:    RegUse{Index: IndexZero, Bytes: 8},
		Build: func(a Args) func(*Ctx) {
			slots, metaOut := a.Int("slots"), int(a.Int("meta_out"))
			return func(c *Ctx) {
				c.RMW(0, func(cell []byte) {
					ti := (binary.BigEndian.Uint64(cell) + 1) % uint64(slots)
					binary.BigEndian.PutUint64(cell, ti)
					c.PHV.SetMeta(metaOut, uint32(ti))
				})
			}
		},
	},
	{
		Name:   "advance_clock",
		Doc:    "bump the generation clock register, skipping 0 (the \"slot free\" sentinel), and publish it (Alg. 1 line 3)",
		Ints:   []IntParam{{Name: "max_clock", Min: 2}, metaOut(MetaClock)},
		Writes: []MetaWrite{{Via: "meta_out", Below: "max_clock"}},
		Reg:    RegUse{Index: IndexZero, Bytes: 8},
		Build: func(a Args) func(*Ctx) {
			maxClock, metaOut := a.Int("max_clock"), int(a.Int("meta_out"))
			return func(c *Ctx) {
				c.RMW(0, func(cell []byte) {
					clk := (binary.BigEndian.Uint64(cell) + 1) % uint64(maxClock)
					if clk == 0 { // clock 0 means "slot free"; skip it
						clk = 1
					}
					binary.BigEndian.PutUint64(cell, clk)
					c.PHV.SetMeta(metaOut, uint32(clk))
				})
			}
		},
	},
	{
		Name:     "add_disabled_header",
		Doc:      "attach an all-zero PP header at `park_offset`, where the merge port parses it: the explicit \"nothing was parked\" marker of §5's small-payload and demoted split paths",
		Ints:     []IntParam{{Name: "park_offset", Parser: SameAsParser}},
		Counters: []string{"count"},
		Build: func(a Args) func(*Ctx) {
			parkOffset, count := int(a.Int("park_offset")), a.Counter("count")
			return func(c *Ctx) {
				c.PHV.Pkt.SetPP(packet.PPHeader{}) // hdr.pp = 0; setValid()
				c.PHV.Pkt.PPOffset = parkOffset
				count.Inc()
			}
		},
	},
	{
		Name:     "strip_disabled_header",
		Doc:      "remove a disabled PP header on the merge path",
		Counters: []string{"count"},
		Build: func(a Args) func(*Ctx) {
			count := a.Counter("count")
			return func(c *Ctx) {
				c.PHV.Pkt.PP = nil
				c.PHV.Pkt.PPOffset = 0
				count.Inc()
			}
		},
	},
	{
		Name:     "drop",
		Doc:      "mark the packet for drop with a reason and count it",
		Counters: []string{"count"},
		Reasons:  []string{"why"},
		Build: func(a Args) func(*Ctx) {
			why, count := a.Reason("why"), a.Counter("count")
			return func(c *Ctx) {
				c.PHV.MarkDrop(why)
				count.Inc()
			}
		},
	},
	{
		Name: "park_claim",
		Doc:  "Alg. 1's split-side slot claim: probe the EXP/CLK cell; on a claim seal a PP tag and attach an enabled header, otherwise a disabled one",
		Ints: []IntParam{
			{Name: "park_bytes", Parser: SameAsParser},
			{Name: "park_offset", Parser: SameAsParser},
		},
		Counters: []string{"claim", "evict", "skip"},
		Runtime:  []string{"max_expiry"},
		Reads:    []int{MetaTableIndex, MetaClock},
		Writes:   []MetaWrite{{Word: MetaSplitClaimed}, {Word: MetaParkBytes}, {Word: MetaParkOffset}},
		Reg:      RegUse{Index: IndexMeta, Word: MetaTableIndex, Bytes: 8},
		Build: func(a Args) func(*Ctx) {
			parkBytes, parkOffset := a.Int("park_bytes"), a.Int("park_offset")
			maxExpiry := a.Runtime("max_expiry")
			claim, evict, skip := a.Counter("claim"), a.Counter("evict"), a.Counter("skip")
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
			}
		},
	},
	{
		Name: "park_release",
		Doc:  "Alg. 2's merge-side validate-and-release: on a clock match free the slot, strip the PP header and prepare the merge park region (a payload cut shorter than `park_offset` drops as \"" + DropTruncatedMerge + "\", slot freed); on a mismatch (premature eviction) drop",
		Ints: []IntParam{
			slotsParam,
			{Name: "blocks", Parser: SameAsParser},
			{Name: "block_bytes", Parser: SameAsParser},
			{Name: "park_bytes", Parser: SameAsParser},
			{Name: "park_offset", Parser: SameAsParser},
		},
		Counters: []string{"merge", "premature"},
		Reasons:  []string{"premature"},
		Writes:   []MetaWrite{{Word: MetaPPEnabled}, {Word: MetaTableIndex, Below: "slots"}, {Word: MetaParkBytes}, {Word: MetaParkOffset}},
		Needs:    HeaderPP,
		Reg:      RegUse{Index: IndexTag, Bytes: 8},
		Build: func(a Args) func(*Ctx) {
			slots, blocks, blockBytes := a.Int("slots"), a.Int("blocks"), a.Int("block_bytes")
			parkBytes, parkOffset := a.Int("park_bytes"), a.Int("park_offset")
			merge, premature, why := a.Counter("merge"), a.Counter("premature"), a.Reason("premature")
			return func(c *Ctx) {
				phv := c.PHV
				tag := phv.Pkt.PP.Tag
				// The reduced index is what later tables see: equal to the
				// tag's for every tag this switch sealed, and inside their
				// registers for one it did not.
				ti := int(tag.TableIndex) % int(slots)
				if releaseProbe(c, ti, tag.Clock) {
					if len(phv.Pkt.Payload) < int(parkOffset) {
						// An NF cut the payload short of the boundary: the
						// slot is free again, but there is no prefix left
						// to splice the parked bytes behind.
						phv.MarkDrop(DropTruncatedMerge)
						return
					}
					phv.SetMeta(MetaPPEnabled, 1)
					phv.SetMeta(MetaTableIndex, uint32(ti))
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
			}
		},
	},
	{
		Name:     "slot_reclaim",
		Doc:      "the explicit-drop fast path (§6.2.4): validate the tag's clock and free the slot without merging; the header-only packet drops either way",
		Ints:     []IntParam{slotsParam},
		Counters: []string{"hit", "miss"},
		Reasons:  []string{"hit", "miss"},
		Needs:    HeaderPP,
		Reg:      RegUse{Index: IndexTag, Bytes: 8},
		Build: func(a Args) func(*Ctx) {
			slots := a.Int("slots")
			hit, miss := a.Counter("hit"), a.Counter("miss")
			hitWhy, missWhy := a.Reason("hit"), a.Reason("miss")
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
			}
		},
	},
	{
		Name:  "block_store",
		Doc:   "copy payload block k of the park region into the payload-table cell (the split-side park); a PHV with no park region drops as \"" + DropNoParkRegion + "\"",
		Ints:  []IntParam{{Name: "block", Parser: BlockIndex}},
		Reads: []int{MetaTableIndex},
		Reg:   RegUse{Index: IndexMeta, Word: MetaTableIndex, BytesOf: ParserBlockBytes},
		Move:  MoveStore,
	},
	{
		Name:  "block_load",
		Doc:   "copy the payload-table cell into block k of the park region and zero the cell (the merge-side restore); a PHV with no park region drops as \"" + DropNoParkRegion + "\"",
		Ints:  []IntParam{{Name: "block", Parser: BlockIndex}},
		Reads: []int{MetaTableIndex},
		Reg:   RegUse{Index: IndexMeta, Word: MetaTableIndex, BytesOf: ParserBlockBytes},
		Move:  MoveLoad,
	},
	{
		Name:         "recirculate",
		Doc:          "request another pipeline pass for this packet",
		Recirculates: true,
		Build: func(Args) func(*Ctx) {
			return func(c *Ctx) {
				c.PHV.Recirc = true
			}
		},
	},
	{
		Name:     "compress_claim",
		Doc:      "park_claim's header-compression analogue: on a context claim seal a CR tag and attach the compression header (the deparser then elides IPv4+L4); on a miss the packet travels uncompressed",
		Counters: []string{"claim", "evict", "skip"},
		Runtime:  []string{"max_expiry"},
		Reads:    []int{MetaCompTableIndex, MetaCompClock},
		Writes:   []MetaWrite{{Word: MetaCompClaimed}},
		Reg:      RegUse{Index: IndexMeta, Word: MetaCompTableIndex, Bytes: 8},
		Build: func(a Args) func(*Ctx) {
			maxExpiry := a.Runtime("max_expiry")
			claim, evict, skip := a.Counter("claim"), a.Counter("evict"), a.Counter("skip")
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
			}
		},
	},
	{
		Name:     "restore_validate",
		Doc:      "park_release's header-compression analogue: on a clock match free the context and flag the restore; on a mismatch (context evicted, headers unrecoverable) drop",
		Ints:     []IntParam{slotsParam},
		Counters: []string{"restore", "stale"},
		Reasons:  []string{"stale"},
		Writes:   []MetaWrite{{Word: MetaCompEnabled}, {Word: MetaCompTableIndex, Below: "slots"}},
		Needs:    HeaderCR,
		Reg:      RegUse{Index: IndexTag, Bytes: 8},
		Build: func(a Args) func(*Ctx) {
			slots := a.Int("slots")
			restore, stale, why := a.Counter("restore"), a.Counter("stale"), a.Reason("stale")
			return func(c *Ctx) {
				phv := c.PHV
				tag := phv.Pkt.CR.Tag
				ti := int(tag.TableIndex) % int(slots) // reduced, as in park_release
				if releaseProbe(c, ti, tag.Clock) {
					phv.SetMeta(MetaCompEnabled, 1)
					phv.SetMeta(MetaCompTableIndex, uint32(ti))
					restore.Inc()
				} else {
					phv.MarkDrop(why)
					stale.Inc()
				}
			}
		},
	},
	{
		// Two entries split the 28-byte context across two registers to
		// respect the 16-byte cell-width ceiling.
		Name:  "header_store",
		Doc:   "serialize the packet's IPv4+L4 headers and store bytes [off, off+len) of that image into the context cell",
		Ints:  []IntParam{offParam, lenParam},
		Reads: []int{MetaCompTableIndex},
		Reg:   RegUse{Index: IndexMeta, Word: MetaCompTableIndex, BytesOf: "len"},
		Build: func(a Args) func(*Ctx) {
			off, length := a.Int("off"), a.Int("len")
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
			}
		},
	},
	{
		Name:  "header_load",
		Doc:   "copy the context cell into bytes [off, off+len) of the PHV header scratch and zero the cell",
		Ints:  []IntParam{offParam, lenParam},
		Reads: []int{MetaCompTableIndex},
		Reg:   RegUse{Index: IndexMeta, Word: MetaCompTableIndex, BytesOf: "len"},
		Build: func(a Args) func(*Ctx) {
			off, length := a.Int("off"), a.Int("len")
			return func(c *Ctx) {
				phv := c.PHV
				c.RMW(int(phv.GetMeta(MetaCompTableIndex)), func(cell []byte) {
					copy(phv.HdrScratch[off:off+length], cell[:length])
					clear(cell)
				})
			}
		},
	},
	{
		// The scratch bytes came from header_store's Marshal, so the
		// unmarshal can only fail if the context table was corrupted.
		Name: "decompress_apply",
		Doc:  "reparse the header scratch back into the packet's IPv4+L4 structs and detach the CR header, completing the restore",
		Build: func(Args) func(*Ctx) {
			return func(c *Ctx) {
				phv := c.PHV
				if err := phv.Pkt.IP.Unmarshal(phv.HdrScratch[:packet.IPv4HeaderLen]); err != nil {
					phv.MarkDrop("restore context corrupt")
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
			}
		},
	},
}
