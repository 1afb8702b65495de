// Package rmt models a Reconfigurable Match-Action Table (RMT) switch
// dataplane of the kind PayloadPark targets (Barefoot Tofino): a parser
// feeding a fixed sequence of match-action stages, each with stage-local
// SRAM register arrays, followed by a deparser, with optional packet
// recirculation.
//
// The model is register-accurate where it matters to the paper's design:
//
//   - A match-action table (MAT) may perform at most ONE stateful register
//     access per packet pass. The access is a read-modify-write executed
//     atomically, mirroring the Tofino stateful ALU. Violations panic,
//     because they correspond to P4 programs the Tofino compiler rejects.
//   - Registers are stage-local: a register created in stage k can only be
//     bound to MATs in stage k.
//   - Actions may only touch the packet header vector (PHV): parsed header
//     fields, user metadata, and the park region (the payload bytes the
//     parser lifted). They never see raw packet memory.
//   - Stages execute in order; information flows forward only (via PHV
//     metadata), never backward.
//
// That is the model — what sits in which stage and what it costs — not how
// it must execute: Compile runs a run of per-block payload moves as one copy
// over a row-banked register slab (move.go), while budgets, lint and Table 1
// still count one MAT, one register and one access per block.
//
// Timing is not cycle-accurate — the pipeline reports a fixed traversal
// latency plus a per-recirculation penalty, which is the granularity the
// paper's evaluation needs (§6.2.5 quotes "10s of ns" per recirculation).
package rmt

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// PortID names a front-panel switch port.
type PortID uint16

// MetaWords is the number of 32-bit user metadata words carried in the PHV
// between stages ("user-defined struct for intermediate results" in the
// paper's algorithms).
const MetaWords = 12

// Well-known metadata word indexes used by programs built on this package.
// They are ordinary PHV metadata; the names exist so programs and tests
// agree on slots.
const (
	MetaTableIndex   = 0 // meta.tbl_idx in Alg. 1
	MetaClock        = 1 // meta.clk in Alg. 1
	MetaPPEnabled    = 2 // meta.is_pp_enb in Alg. 2
	MetaPayloadOK    = 3 // parser flag: payload large enough to park
	MetaSplitClaimed = 4 // split path claimed a slot this pass
	MetaParkBytes    = 5 // park size for the deparser (truncate/reassemble)
	MetaParkOffset   = 6 // decoupling-boundary offset within the payload

	// Words 7..10 belong to the ROHC-style header-compression program
	// (internal/prog), the sibling policy to payload parking: its context
	// table index, generation clock, and the claimed/restored flags.
	MetaCompTableIndex = 7  // context-table index of this packet
	MetaCompClock      = 8  // generation clock for the context claim
	MetaCompClaimed    = 9  // compress path claimed a context this pass
	MetaCompEnabled    = 10 // restore path validated a context this pass
)

// PHV is the packet header vector: everything the match-action pipeline is
// allowed to see and modify. Pkt points at the parsed header structs; the
// deparser makes header edits effective.
//
// PHVs are pooled per pipe (Pipeline.AcquirePHV / ReleasePHV): a recycled
// PHV carries a packet through the pipeline without allocating.
type PHV struct {
	Pkt     *packet.Packet
	InPort  PortID
	Drop    bool
	DropWhy string

	// Recirc is set by an action to request another pass. Pass counts the
	// passes completed so far (0 on first traversal).
	Recirc bool
	Pass   int

	Meta [MetaWords]uint32

	// Park is the park region, block k at [k*w, (k+1)*w): on a split the
	// payload bytes the parser lifted into the PHV (the paper lifts up to
	// 160 B so stages can write them to register arrays), on a merge what
	// PrepareMergeBlocks handed the load MATs to fill. Empty when the payload
	// was too small to lift; a block move then drops the packet.
	Park []byte

	// HdrScratch is PHV scratch for header bytes staged between a register
	// load and the deparser — the header-compression restore path loads the
	// stored IPv4+L4 context here before reapplying it to the packet. Sized
	// for IPv4 (20 B) plus UDP (8 B), the only profile that fits the
	// register budget.
	HdrScratch [HdrScratchBytes]byte

	// Headroom is the part of Pkt's payload buffer in front of
	// Pkt.Payload (nil when the payload lies elsewhere); a merge may write
	// there and into the buffer's capacity behind the payload.
	Headroom []byte

	// ctx is the per-packet action context handed to MATs; keeping it in
	// the (pooled) PHV keeps Pipeline.Process allocation-free.
	ctx Ctx
	// merge is the merged payload PrepareMergeBlocks laid out.
	merge []byte
}

// PrepareMergeBlocks lays out the merged payload — prefix, n blocks of w
// bytes, tail — with the park region at payload offset k, and returns the
// region for the payload-table load MATs to fill; FinishMerge returns the
// whole. With k == 0 and at least n*w bytes of headroom — the split's hole,
// passed on by transit hops, or a parser's room — the region is the
// headroom's tail and the payload does not move. Otherwise the payload
// grows by n*w bytes, into the buffer's capacity behind it when there is
// that much (a split at k > 0 leaves exactly that) and by append's copy
// when there is not, and its tail moves up behind the region — so the
// payload of a packet dropped before FinishMerge is no longer whole.
func (p *PHV) PrepareMergeBlocks(n, w, k int) []byte {
	park, payload, h := n*w, p.Pkt.Payload, len(p.Headroom)
	switch spare := cap(p.Headroom) - h - len(payload); { // the buffer behind the payload
	case k == 0 && h >= park && spare >= 0:
		p.merge = p.Headroom[h-park : h+len(payload)]
	case spare >= park:
		p.merge = payload[:len(payload)+park]
		copy(p.merge[k+park:], payload[k:])
	default:
		p.merge = append(payload[:len(payload):len(payload)], make([]byte, park)...)
		copy(p.merge[k+park:], payload[k:])
	}
	p.Park = p.merge[k : k+park]
	return p.Park
}

// FinishMerge returns the merged payload PrepareMergeBlocks laid out. It
// lies in the packet's own buffer unless append had to grow it, so it stays
// valid after the PHV is released.
func (p *PHV) FinishMerge() []byte { return p.merge }

// SetMeta stores a metadata word.
func (p *PHV) SetMeta(i int, v uint32) { p.Meta[i] = v }

// GetMeta loads a metadata word.
func (p *PHV) GetMeta(i int) uint32 { return p.Meta[i] }

// DropTruncatedMerge is the reason park_release drops a validly tagged
// merge packet whose payload no longer reaches the program's boundary
// offset: PrepareMergeBlocks and FinishMerge splice the parked bytes
// behind payload[:k], so a payload an NF cut shorter than k cannot be
// reassembled. It is fixed rather than spec-bound because it guards the
// merge helpers, not a policy.
const DropTruncatedMerge = "merge payload truncated"

// DropNoParkRegion is the reason a block move drops a packet whose park
// region does not reach the block: the program moves blocks on a path where
// the parser lifted nothing and park_release prepared nothing. Fixed like
// DropTruncatedMerge: it guards the move routine, not a policy.
const DropNoParkRegion = "no park region"

// MarkDrop drops the packet at end of pipeline, recording a reason for
// diagnostics and counters.
func (p *PHV) MarkDrop(why string) {
	p.Drop = true
	p.DropWhy = why
}

// Register is a stage-local SRAM register array with fixed-width cells,
// accessed through the single-RMW-per-MAT discipline via Ctx. Its cells
// live in a bank (a stand-alone register is a bank of one).
type Register struct {
	name  string
	stage int
	width int // bytes per cell
	cells int
	bank  *bank
	off   int // of a cell within its bank row
}

// bank is the storage of registers placed together (one of a Layout's Banks),
// row-major: row i holds cell i of every register back to back, so the cells
// a run of payload MATs touches for one table index are adjacent and a fused
// block move is one copy. Rows come in power-of-two chunks, each made by its
// first write (a nil chunk reads as zeros), so a counter-indexed table holds
// memory for the prefix its traffic reaches; SRAMBytes declares the whole.
type bank struct {
	chunks [][]byte // nil until written
	shift  uint     // log2 of the rows per chunk
	mask   int      // rows per chunk - 1
	stride int      // bytes per row
	cells  int      // rows in the bank; the last chunk holds only its share
}

// bankChunkBytes bounds one chunk: 128 rows of the prototype's 20 x 8 B payload
// row or 4,096 8-byte cells, so a fresh program's first split zeroes ~52 KB.
const bankChunkBytes = 32 << 10

func newBank(cells, stride int) *bank {
	rows := 1 << max(bits.Len(uint(bankChunkBytes/stride))-1, 0)
	return &bank{chunks: make([][]byte, (cells+rows-1)/rows), shift: uint(bits.TrailingZeros(uint(rows))),
		mask: rows - 1, stride: stride, cells: cells}
}

// row returns row i of the bank from byte offset off on, for writing: the
// first write to a chunk creates it.
func (b *bank) row(i, off int) []byte {
	c := b.chunks[i>>b.shift]
	if c == nil {
		c = b.grow(i >> b.shift)
	}
	return c[(i&b.mask)*b.stride+off:]
}

// grow creates chunk k, sized to the bank rows it holds: the bank's one
// allocation, a warm-up once per chunk, out of line so the block-move and
// RMW paths carry none of it.
//
//go:noinline
func (b *bank) grow(k int) []byte {
	b.chunks[k] = make([]byte, min(b.mask+1, b.cells-k<<b.shift)*b.stride)
	return b.chunks[k]
}

// Name returns the register's name.
func (r *Register) Name() string { return r.name }

// Cells returns the number of cells.
func (r *Register) Cells() int { return r.cells }

// Width returns the cell width in bytes.
func (r *Register) Width() int { return r.width }

// SRAMBytes returns the SRAM footprint of the array.
func (r *Register) SRAMBytes() int { return r.cells * r.width }

// cell returns the backing slice for cell i. Only Ctx and test helpers use it.
func (r *Register) cell(i int) []byte {
	return r.bank.row(i, r.off)[:r.width]
}

// Snapshot copies cell i's contents; intended for tests and debugging, not
// for dataplane logic (which must go through Ctx). Like every reader it
// creates no chunk: an unwritten cell copies as zeros.
func (r *Register) Snapshot(i int) []byte {
	if r.bank.chunks[i>>r.bank.shift] == nil && uint(i) < uint(r.cells) {
		return make([]byte, r.width)
	}
	return append([]byte(nil), r.cell(i)...)
}

// Occupied counts the cells (a word wide or more) whose leading 32-bit word
// is non-zero — an EXP/CLK register's live entries — in place, without
// allocating, and skipping the chunks no write has created.
func (r *Register) Occupied() int {
	n, stride := 0, r.bank.stride
	for _, c := range r.bank.chunks {
		for at := r.off; at < len(c); at += stride {
			if binary.BigEndian.Uint32(c[at:]) != 0 {
				n++
			}
		}
	}
	return n
}

// Ctx is the action execution context handed to a MAT's action. It
// enforces the one-stateful-access-per-MAT-per-packet restriction.
type Ctx struct {
	PHV      *PHV
	reg      *Register
	accessed bool
}

// RMW executes one atomic read-modify-write on the MAT's bound register
// cell idx. The closure may read and rewrite the cell in place; that is
// the full power of the stateful ALU. Calling RMW twice in one action, on
// a MAT with no bound register, or with idx out of range panics: those are
// programs the hardware cannot run.
func (c *Ctx) RMW(idx int, f func(cell []byte)) {
	if c.reg == nil {
		panic("rmt: action accessed a register but its MAT binds none")
	}
	if c.accessed {
		panic(fmt.Sprintf("rmt: MAT exceeded one stateful access per packet on register %q", c.reg.name))
	}
	if idx < 0 || idx >= c.reg.cells {
		c.reg.badIndex(idx)
	}
	c.accessed = true
	f(c.reg.cell(idx))
}

// Rule is one match-action entry of a MAT: Conds (from CompileConds) inspect
// the PHV's headers and metadata only, and nil Conds match every packet;
// Action runs when every condition holds. Rules are evaluated in order; the
// first hit fires; at most one rule fires per MAT per pass, as in hardware.
// A rule whose Move names a direction has no Action: its whole effect is
// that block move, which the pipe executes itself (move.go). Process counts
// the rule's fires, a fused run's as step by step (fuseMoves), on the rule,
// so the count survives a recompile.
type Rule struct {
	Name   string
	Conds  []CondOp
	Action func(*Ctx)
	Move   Move
	hits   uint64
}

// Hits returns how many times the rule fired. Like MatchCounts, it is not
// meaningful while a worker is processing the rule's pipe.
func (r *Rule) Hits() uint64 { return r.hits }

// Resources declares what a MAT consumes of the per-stage hardware budgets.
// The P4 compiler derives these from the program; here the program author
// declares them (in a prog.Spec, hence the JSON form) and the declarations
// are validated against stage budgets.
type Resources struct {
	TCAMBytes      int `json:"tcam_bytes,omitempty"`       // ternary match storage
	SRAMMatchBytes int `json:"sram_match_bytes,omitempty"` // exact match storage (excluding bound registers)
	VLIWSlots      int `json:"vliw_slots,omitempty"`       // action instruction slots
	ExactXbarBits  int `json:"exact_xbar_bits,omitempty"`  // exact match crossbar input bits
	TernXbarBits   int `json:"tern_xbar_bits,omitempty"`   // ternary match crossbar input bits
}

func (r *Resources) add(o Resources) {
	r.TCAMBytes += o.TCAMBytes
	r.SRAMMatchBytes += o.SRAMMatchBytes
	r.VLIWSlots += o.VLIWSlots
	r.ExactXbarBits += o.ExactXbarBits
	r.TernXbarBits += o.TernXbarBits
}

// MAT is one match-action table placed in a stage, optionally bound to a
// register of that stage.
type MAT struct {
	Name  string
	Stage int
	Rules []Rule
	Reg   *Register
	Res   Resources
}
