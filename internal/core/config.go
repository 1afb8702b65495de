// Package core implements PayloadPark itself: the Split, Merge, and
// eviction dataplane program of the paper (Algorithms 1 and 2), expressed
// against the RMT pipeline model in internal/rmt, together with a Switch
// wrapper that adds L2 forwarding and recirculation routing.
//
// The program is byte-accurate: Split really removes the parked payload
// prefix from the packet and stores it in stage-local register cells;
// Merge really reassembles it. Running the same traffic through a switch
// with and without the program installed yields byte-identical output —
// the functional-equivalence property of §6.2.6.
package core

import (
	"errors"
	"fmt"

	"github.com/payloadpark/payloadpark/internal/rmt"
)

// Block geometry. The payload table is a 2-D register array: rows are
// table indexes, columns are payload blocks striped across MATs (paper
// Fig. 4). Tofino stateful cells are at most 64 bits, so blocks are 8
// bytes wide; 20 blocks in stages 2..11 of the ingress pipe park the
// paper's 160 bytes, and 28 more blocks on a recirculation pipe raise the
// total to the paper's 384 bytes (§6.2.5).
const (
	BlockBytes   = 8
	BaseBlocks   = 20 // 160 B parked without recirculation
	RecircBlocks = 28 // +224 B parked on the second pipe

	// BaseParkBytes is the per-packet payload bytes parked without
	// recirculation (§1: "Our prototype uses RMT switches to temporarily
	// store 160 bytes from each packet's payload").
	BaseParkBytes = BlockBytes * BaseBlocks
	// RecircParkBytes is the per-packet payload bytes parked with
	// recirculation (§6.2.5: "Recirculation increases the stored payload
	// size from 160 bytes to 384 bytes").
	RecircParkBytes = BlockBytes * (BaseBlocks + RecircBlocks)

	// MaxClock is the rollover bound of the 16-bit clock register (§5:
	// "two 2-byte registers for the table index and the clock counter").
	MaxClock = 1 << 16
	// MaxSlots is the largest lookup table a 16-bit table index can cover.
	MaxSlots = 1 << 16
)

// Config parameterizes one PayloadPark instance (one split/merge port pair
// and its lookup table).
type Config struct {
	// Slots is M, the lookup table capacity (rows of the metadata and
	// payload tables).
	Slots int
	// MaxExpiry is the Expiry threshold MAX_EXP (§3.3): how many probes of
	// an occupied slot happen before its payload is evicted. 1 is the
	// paper's aggressive default; higher is more conservative.
	//
	// A claim's tag is its table index and the 16-bit clock, which skips
	// 0 and so repeats every 65535 splits: a tag comes back after
	// 65535 / gcd(Slots, 65535) wraps of the table, the horizon past which
	// a packet held at the NF can meet a later claim of its slot under its
	// own tag. A slot is re-claimed Slots × MaxExpiry splits after the
	// claim it evicts; when that is a multiple of 65535 the evicted packet
	// would always merge with the new occupant's payload, so Validate
	// rejects the pair and Program.SetMaxExpiry steps off it.
	MaxExpiry uint32
	// SplitPort is the switch port whose ingress runs the Split operation
	// (traffic arriving from the generator side).
	SplitPort rmt.PortID
	// MergePort is the switch port whose ingress runs the Merge operation
	// (traffic returning from the NF server).
	MergePort rmt.PortID
	// Recirculate enables the second-pipe payload extension (§6.2.5),
	// raising parked bytes from 160 to 384 and the minimum payload
	// threshold likewise (§6.3.3).
	Recirculate bool
	// BoundaryOffset moves the header-payload decoupling boundary (§7):
	// the first BoundaryOffset payload bytes travel to the NF server in
	// front of the PayloadPark header, visible to NFs that inspect a
	// payload prefix (Slim-DPI-style classification). Zero reproduces
	// the prototype. Bounded by MaxBoundaryOffset — the prefix rides in
	// the PHV like any parsed bytes, so it competes for PHV capacity.
	BoundaryOffset int
}

// MaxBoundaryOffset bounds the visible payload prefix; beyond this the
// PHV could not hold headers + prefix + parked blocks.
const MaxBoundaryOffset = 128

// Validation errors.
var (
	ErrBadSlots    = errors.New("core: Slots must be in [1, 65536]")
	ErrBadExpiry   = errors.New("core: MaxExpiry must be >= 1")
	ErrReissuedTag = errors.New("core: Slots × MaxExpiry must not be a multiple of 65535 (a re-claimed slot would reissue its evicted packet's tag)")
	ErrSamePort    = errors.New("core: SplitPort and MergePort must differ")
	ErrBadBoundary = errors.New("core: BoundaryOffset outside [0, MaxBoundaryOffset]")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Slots < 1 || c.Slots > MaxSlots {
		return fmt.Errorf("%w (got %d)", ErrBadSlots, c.Slots)
	}
	if c.MaxExpiry < 1 {
		return fmt.Errorf("%w (got %d)", ErrBadExpiry, c.MaxExpiry)
	}
	if c.reissues(c.MaxExpiry) {
		return fmt.Errorf("%w (got %d × %d)", ErrReissuedTag, c.Slots, c.MaxExpiry)
	}
	if c.SplitPort == c.MergePort {
		return ErrSamePort
	}
	if c.BoundaryOffset < 0 || c.BoundaryOffset > MaxBoundaryOffset {
		return fmt.Errorf("%w (got %d)", ErrBadBoundary, c.BoundaryOffset)
	}
	return nil
}

// reissues reports whether a slot re-claimed after exp probes gets the tag
// of the claim it evicted (see MaxExpiry).
func (c Config) reissues(exp uint32) bool {
	return uint64(c.Slots)*uint64(exp)%(MaxClock-1) == 0
}

// Blocks returns the number of payload blocks this configuration stores.
func (c Config) Blocks() int {
	if c.Recirculate {
		return BaseBlocks + RecircBlocks
	}
	return BaseBlocks
}

// TableSRAMBytes returns the stateful SRAM consumed by the lookup table
// (metadata + payload tables) for capacity planning and the Fig. 14 sweep.
func (c Config) TableSRAMBytes() int {
	meta := c.Slots * metaCellBytes
	payload := c.Slots * c.Blocks() * BlockBytes
	return meta + payload
}
