package prog

import "fmt"

// Counter names of the built-in PayloadPark spec. core.Program binds these
// to its Counters struct; user specs may reuse them to light up the same
// reporting paths.
const (
	CtrSplits              = "splits"
	CtrMerges              = "merges"
	CtrEvictions           = "evictions"
	CtrPrematureEvictions  = "premature_evictions"
	CtrExplicitDrops       = "explicit_drops"
	CtrStaleExplicitDrops  = "stale_explicit_drops"
	CtrSmallPayloadSkips   = "small_payload_skips"
	CtrOccupiedSkips       = "occupied_skips"
	CtrDemotedSkips        = "demoted_skips"
	CtrSplitDisabledFromNF = "split_disabled_from_nf"
	CtrBadTagDrops         = "bad_tag_drops"
)

// Runtime parameter names of the built-in specs.
const (
	RTMaxExpiry    = "max_expiry"
	RTSplitEnabled = "split_enabled"
)

// Register roles of the built-in specs.
const (
	RoleMeta     = "meta"    // parking EXP/CLK metadata table
	RoleCompMeta = "cr_meta" // compression context EXP/CLK table
	RoleCtxLo    = "cr_ctx_lo"
	RoleCtxHi    = "cr_ctx_hi"
)

// ParkParams parameterizes PayloadParkSpec. core.CompilePark fills it from
// its Config plus the package geometry constants.
type ParkParams struct {
	Slots          int
	MaxExpiry      uint32
	SplitPort      int
	MergePort      int
	BoundaryOffset int
	Recirculate    bool
	Blocks         int // payload blocks extracted by the parser (base + recirc)
	BaseBlocks     int // blocks stored on the ingress pipe
	BlockBytes     int
	MaxClock       int64
}

// PayloadParkSpec is the paper's program (Algorithms 1 and 2) as data: the
// exact table layout core.Program used to hard-code. Byte-for-byte parity
// with that implementation is pinned by the sim goldens.
func PayloadParkSpec(p ParkParams) *Spec {
	s := &Spec{
		Name:        "payloadpark",
		Description: "PayloadPark split/merge: park payload bytes in switch SRAM across the NF round trip (paper Alg. 1/2)",
		Parser: ParserSpec{
			Blocks:     Ref("blocks"),
			BlockBytes: Ref("block_bytes"),
			ParkOffset: Ref("boundary_offset"),
			PPPorts:    []ParamVal{Ref("merge_port")},
		},
		// Headers: eth(112) + ipv4(160) + udp(64) + pp(56) = 392 bits;
		// intrinsic metadata 64 bits; 8 user metadata words. (The PHV
		// reserves more words now, but this program's declared footprint is
		// pinned to the original for golden parity.)
		PHVBits: 392 + 64 + 8*32,
		Params: map[string]int64{
			"slots":           int64(p.Slots),
			"split_port":      int64(p.SplitPort),
			"merge_port":      int64(p.MergePort),
			"boundary_offset": int64(p.BoundaryOffset),
			"blocks":          int64(p.Blocks),
			"block_bytes":     int64(p.BlockBytes),
			"park_bytes":      int64(p.Blocks * p.BlockBytes),
			"max_clock":       p.MaxClock,
		},
		Runtime: map[string]uint32{
			RTMaxExpiry:    p.MaxExpiry,
			RTSplitEnabled: 1,
		},
		Registers: []RegisterSpec{
			{Role: "tbl_idx", Name: "tbl_idx", Stage: 0, Width: Lit(8), Cells: Lit(1)},
			{Role: "clk", Name: "clk", Stage: 0, Width: Lit(8), Cells: Lit(1)},
			{Role: RoleMeta, Name: "meta_tbl", Stage: 1, Width: Lit(8), Cells: Ref("slots")},
		},
	}

	splitEligible := []CondSpec{
		{Field: "in_port", Value: Ref("split_port")},
		{Field: "param.split_enabled", Value: Lit(1)},
		{Field: "meta.payload_ok", Value: Lit(1)},
	}

	s.Tables = append(s.Tables,
		// Alg. 1 stage 1: advance the table index; only split-eligible
		// packets consume one so allocation stays FIFO-sequential (§5).
		TableSpec{
			Name: "pp_tagger_ti", Stage: 0, Register: "tbl_idx",
			Resources: ResourcesSpec{VLIWSlots: 3, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 32},
			Entries: []EntrySpec{{
				Name: "advance", Match: splitEligible, Action: "advance_index",
				Params: map[string]ParamVal{"slots": Ref("slots")},
			}},
		},
		// Alg. 1 stage 1: advance the generation clock, skipping zero.
		TableSpec{
			Name: "pp_tagger_clk", Stage: 0, Register: "clk",
			Resources: ResourcesSpec{VLIWSlots: 3, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 32},
			Entries: []EntrySpec{{
				Name: "advance", Match: splitEligible, Action: "advance_clock",
				Params: map[string]ParamVal{"max_clock": Ref("max_clock")},
			}},
		},
		// §5's split path for packets that park nothing: a disabled header
		// tells Merge nothing was stored. Two disjoint entries replace the
		// original's in-action counter branch: a demoted split (control
		// plane disabled parking) vs a payload too small to park.
		TableSpec{
			Name: "pp_split_small", Stage: 0,
			Resources: ResourcesSpec{VLIWSlots: 4, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 32},
			Entries: []EntrySpec{
				{
					Name: "add_disabled_header_demoted",
					Match: []CondSpec{
						{Field: "in_port", Value: Ref("split_port")},
						{Field: "param.split_enabled", Value: Lit(0)},
						{Field: "meta.payload_ok", Value: Lit(1)},
						{Field: "pp.valid", Value: Lit(0)},
					},
					Action:   "add_disabled_header",
					Params:   map[string]ParamVal{"park_offset": Ref("boundary_offset")},
					Counters: map[string]string{"count": CtrDemotedSkips},
				},
				{
					Name: "add_disabled_header_small",
					Match: []CondSpec{
						{Field: "in_port", Value: Ref("split_port")},
						{Field: "meta.payload_ok", Value: Lit(0)},
						{Field: "pp.valid", Value: Lit(0)},
					},
					Action:   "add_disabled_header",
					Params:   map[string]ParamVal{"park_offset": Ref("boundary_offset")},
					Counters: map[string]string{"count": CtrSmallPayloadSkips},
				},
			},
		},
		// Alg. 2 stage 1: ENB=0 packets back from the NF carry no parked
		// payload; strip the header.
		TableSpec{
			Name: "pp_merge_disabled", Stage: 0,
			Resources: ResourcesSpec{VLIWSlots: 2, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 32},
			Entries: []EntrySpec{{
				Name: "strip_disabled_header",
				Match: []CondSpec{
					{Field: "in_port", Value: Ref("merge_port")},
					{Field: "pp.valid", Value: Lit(1)},
					{Field: "pp.enabled", Value: Lit(0)},
				},
				Action:   "strip_disabled_header",
				Counters: map[string]string{"count": CtrSplitDisabledFromNF},
			}},
		},
		// Tag CRC validation (§3.2): reject corrupted tags before any
		// stateful access.
		TableSpec{
			Name: "pp_tag_validate", Stage: 0,
			Resources: ResourcesSpec{VLIWSlots: 2, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 64},
			Entries: []EntrySpec{{
				Name: "drop_bad_crc",
				Match: []CondSpec{
					{Field: "in_port", Value: Ref("merge_port")},
					{Field: "pp.enabled", Value: Lit(1)},
					{Field: "pp.tag_valid", Value: Lit(0)},
				},
				Action:   "drop",
				Counters: map[string]string{"count": CtrBadTagDrops},
				Reasons:  map[string]string{"why": "bad tag crc"},
			}},
		},
		// Stage 2: the shared metadata table — Alg. 1's probe/claim/evict,
		// Alg. 2's validate/reclaim, and §6.2.4's explicit drop, one MAT
		// with one stateful access per packet.
		TableSpec{
			Name: "pp_metadata", Stage: 1, Register: RoleMeta,
			Resources: ResourcesSpec{VLIWSlots: 16, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 96},
			Entries: []EntrySpec{
				{
					Name: "split_probe", Match: splitEligible, Action: "park_claim",
					Params: map[string]ParamVal{
						"park_bytes":  Ref("park_bytes"),
						"park_offset": Ref("boundary_offset"),
					},
					Counters: map[string]string{
						"claim": CtrSplits,
						"evict": CtrEvictions,
						"skip":  CtrOccupiedSkips,
					},
				},
				{
					Name: "merge_validate",
					Match: []CondSpec{
						{Field: "in_port", Value: Ref("merge_port")},
						{Field: "drop", Value: Lit(0)},
						{Field: "pp.enabled", Value: Lit(1)},
						{Field: "pp.op", Value: Lit(0)},
					},
					Action: "park_release",
					Params: map[string]ParamVal{
						"slots":       Ref("slots"),
						"blocks":      Ref("blocks"),
						"block_bytes": Ref("block_bytes"),
						"park_bytes":  Ref("park_bytes"),
						"park_offset": Ref("boundary_offset"),
					},
					Counters: map[string]string{
						"merge":     CtrMerges,
						"premature": CtrPrematureEvictions,
					},
					Reasons: map[string]string{"premature": "premature eviction"},
				},
				{
					Name: "explicit_drop",
					Match: []CondSpec{
						{Field: "in_port", Value: Ref("merge_port")},
						{Field: "drop", Value: Lit(0)},
						{Field: "pp.enabled", Value: Lit(1)},
						{Field: "pp.op", Value: Lit(1)},
					},
					Action: "slot_reclaim",
					Params: map[string]ParamVal{"slots": Ref("slots")},
					Counters: map[string]string{
						"hit":  CtrExplicitDrops,
						"miss": CtrStaleExplicitDrops,
					},
					Reasons: map[string]string{
						"hit":  "explicit drop",
						"miss": "stale explicit drop",
					},
				},
			},
		},
	)

	// Stages 3..N: the payload table, two blocks per ingress stage, each MAT
	// storing its block on Split and loading+clearing it on Merge.
	for k := 0; k < p.BaseBlocks; k++ {
		addPayloadBlock(s, "", 2+k/2, k, 0)
	}
	if p.Recirculate {
		s.Tables = append(s.Tables, TableSpec{
			Name: "pp_recirc_request", Stage: 11,
			Resources: ResourcesSpec{VLIWSlots: 1, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 16},
			Entries: []EntrySpec{
				{
					Name: "request_split",
					Match: []CondSpec{
						{Field: "pass", Value: Lit(0)},
						{Field: "drop", Value: Lit(0)},
						{Field: "meta.split_claimed", Value: Lit(1)},
					},
					Action: "recirculate",
				},
				{
					Name: "request_merge",
					Match: []CondSpec{
						{Field: "pass", Value: Lit(0)},
						{Field: "drop", Value: Lit(0)},
						{Field: "meta.pp_enabled", Value: Lit(1)},
					},
					Action: "recirculate",
				},
			},
		})
		// Blocks BaseBlocks..Blocks-1 live on the recirculation pipe,
		// matched on the second pass: stages 0..3 take three blocks, the
		// rest take two (3*4 + 2*8 = 28).
		for i := 0; i < p.Blocks-p.BaseBlocks; i++ {
			stage := 4 + (i-12)/2
			if i < 12 {
				stage = i / 3
			}
			addPayloadBlock(s, "recirc", stage, p.BaseBlocks+i, 1)
		}
	}
	return s
}

// addPayloadBlock appends one payload block register and its store/load MAT.
func addPayloadBlock(s *Spec, pipe string, stage, block, pass int) {
	role := fmt.Sprintf("payload_%d", block)
	s.Registers = append(s.Registers, RegisterSpec{
		Role: role, Name: fmt.Sprintf("pload_tbl_%d", block), Pipe: pipe,
		Stage: stage, Width: Ref("block_bytes"), Cells: Ref("slots"),
	})
	s.Tables = append(s.Tables, TableSpec{
		Name: fmt.Sprintf("pp_payload_%d", block), Pipe: pipe, Stage: stage, Register: role,
		Resources: ResourcesSpec{VLIWSlots: 1, ExactXbarBits: 80},
		Entries: []EntrySpec{
			{
				Name: "store",
				Match: []CondSpec{
					{Field: "pass", Value: Lit(int64(pass))},
					{Field: "in_port", Value: Ref("split_port")},
					{Field: "meta.split_claimed", Value: Lit(1)},
				},
				Action: "block_store",
				Params: map[string]ParamVal{"block": Lit(int64(block))},
			},
			{
				Name: "load",
				Match: []CondSpec{
					{Field: "pass", Value: Lit(int64(pass))},
					{Field: "in_port", Value: Ref("merge_port")},
					{Field: "drop", Value: Lit(0)},
					{Field: "meta.pp_enabled", Value: Lit(1)},
				},
				Action: "block_load",
				Params: map[string]ParamVal{"block": Lit(int64(block))},
			},
		},
	})
}

// CompressParams parameterizes HeaderCompressSpec.
type CompressParams struct {
	Slots        int    // context-table slots
	MaxExpiry    uint32 // context lifetime in claim attempts
	CompressPort int    // ingress port whose packets are compressed
	RestorePort  int    // ingress port whose packets are restored
}

func (p *CompressParams) fillDefaults() {
	if p.Slots == 0 {
		p.Slots = 8192
	}
	if p.MaxExpiry == 0 {
		p.MaxExpiry = 1
	}
}

// HeaderCompressSpec is the ROHC-style header-compression program, the
// paper's sibling policy to payload parking (the ROHC extern case study):
// where parking detaches payload bytes, compression detaches the IPv4+UDP
// headers (28 B) into a switch context table and sends a 7-byte compression
// header in their place, restoring them when the packet returns. Same
// EXP/CLK claim/release discipline, same tag format, applied to the other
// end of the packet. TCP is left uncompressed: its 40 B of headers exceed
// the 28 B context a register pair can hold.
func HeaderCompressSpec(p CompressParams) *Spec {
	p.fillDefaults()
	s := &Spec{
		Name:        "header-compress",
		Description: "ROHC-style header compression: park IPv4+UDP headers in a switch context table across the NF round trip",
		// No payload blocks: this program parks headers, not payload.
		// Headers: eth(112) + ipv4(160) + udp(64) + cr(56) = 392 bits;
		// intrinsic metadata 64 bits; 12 user metadata words.
		PHVBits: 392 + 64 + 12*32,
		Params: map[string]int64{
			"comp_slots": int64(p.Slots),
			"split_port": int64(p.CompressPort),
			"merge_port": int64(p.RestorePort),
		},
		Runtime: map[string]uint32{RTMaxExpiry: p.MaxExpiry},
	}
	appendCompressParts(s)
	return s
}

// ParkCompressSpec combines payload parking and header compression on one
// pipe: payload bytes park per Alg. 1/2 while the IPv4+UDP headers compress
// into the context table, so a split packet crosses the NF link as little
// more than Ethernet + tags. The compression side reuses the parking spec's
// port parameters (compress where you split, restore where you merge) and
// shares its max_expiry runtime knob.
func ParkCompressSpec(park ParkParams, compSlots int) *Spec {
	if compSlots == 0 {
		compSlots = 8192
	}
	s := PayloadParkSpec(park)
	s.Name = "park+compress"
	s.Description = "payload parking combined with ROHC-style header compression"
	// The combined program really does carry both policies' state: the
	// pinned parking footprint plus the compression header and the four
	// extra metadata words.
	s.PHVBits = 392 + 64 + 8*32 + 56 + 4*32
	s.Params["comp_slots"] = int64(compSlots)
	appendCompressParts(s)
	return s
}

// appendCompressParts appends the header-compression registers and tables to
// a spec that declares comp_slots, split_port, merge_port and max_expiry.
// Table placement mirrors parking's: taggers in stage 0, the stateful
// claim/restore in stage 1, context stores in stage 2, and the restore
// apply in stage 3 — so the combined spec packs each stage to exactly the
// stateful-ALU and VLIW budgets.
func appendCompressParts(s *Spec) {
	compressible := []CondSpec{
		{Field: "in_port", Value: Ref("split_port")},
		{Field: "l4", Value: Lit(17)}, // UDP only; TCP headers exceed the context
		{Field: "cr.valid", Value: Lit(0)},
	}
	s.Registers = append(s.Registers,
		RegisterSpec{Role: "cr_idx", Name: "cr_idx[$split_port]", Stage: 0, Width: Lit(8), Cells: Lit(1)},
		RegisterSpec{Role: "cr_clk", Name: "cr_clk[$split_port]", Stage: 0, Width: Lit(8), Cells: Lit(1)},
		RegisterSpec{Role: RoleCompMeta, Name: "cr_meta[$split_port]", Stage: 1, Width: Lit(8), Cells: Ref("comp_slots")},
		RegisterSpec{Role: RoleCtxLo, Name: "cr_ctx_lo[$split_port]", Stage: 2, Width: Lit(14), Cells: Ref("comp_slots")},
		RegisterSpec{Role: RoleCtxHi, Name: "cr_ctx_hi[$split_port]", Stage: 2, Width: Lit(14), Cells: Ref("comp_slots")},
	)
	s.Tables = append(s.Tables,
		TableSpec{
			Name: "cr_tagger_ti", Stage: 0, Register: "cr_idx",
			Resources: ResourcesSpec{VLIWSlots: 3, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 32},
			Entries: []EntrySpec{{
				Name: "advance", Match: compressible, Action: "advance_index",
				Params: map[string]ParamVal{"slots": Ref("comp_slots"), "meta_out": Lit(7)}, // meta.comp_tbl_idx
			}},
		},
		TableSpec{
			Name: "cr_tagger_clk", Stage: 0, Register: "cr_clk",
			Resources: ResourcesSpec{VLIWSlots: 3, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 32},
			Entries: []EntrySpec{{
				Name: "advance", Match: compressible, Action: "advance_clock",
				Params: map[string]ParamVal{"max_clock": Lit(1 << 16), "meta_out": Lit(8)}, // meta.comp_clk
			}},
		},
		// Tag CRC validation before any stateful access, as for parking.
		TableSpec{
			Name: "cr_tag_validate", Stage: 0,
			Resources: ResourcesSpec{VLIWSlots: 2, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 64},
			Entries: []EntrySpec{{
				Name: "drop_bad_crc",
				Match: []CondSpec{
					{Field: "in_port", Value: Ref("merge_port")},
					{Field: "cr.valid", Value: Lit(1)},
					{Field: "cr.tag_valid", Value: Lit(0)},
				},
				Action:   "drop",
				Counters: map[string]string{"count": "cr_bad_tag_drops"},
				Reasons:  map[string]string{"why": "bad compression tag crc"},
			}},
		},
		TableSpec{
			Name: "cr_meta", Stage: 1, Register: RoleCompMeta,
			Resources: ResourcesSpec{VLIWSlots: 16, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 96},
			Entries: []EntrySpec{
				{
					Name: "compress_probe", Match: compressible, Action: "compress_claim",
					Counters: map[string]string{
						"claim": "compressions",
						"evict": "context_evictions",
						"skip":  "context_skips",
					},
				},
				{
					Name: "restore_validate",
					Match: []CondSpec{
						{Field: "in_port", Value: Ref("merge_port")},
						{Field: "drop", Value: Lit(0)},
						{Field: "cr.valid", Value: Lit(1)},
					},
					Action:   "restore_validate",
					Params:   map[string]ParamVal{"slots": Ref("comp_slots")},
					Counters: map[string]string{"restore": "restores", "stale": "stale_restores"},
					Reasons:  map[string]string{"stale": "stale compression context"},
				},
			},
		},
		TableSpec{
			Name: "cr_ctx_lo", Stage: 2, Register: RoleCtxLo,
			Resources: ResourcesSpec{VLIWSlots: 2, ExactXbarBits: 80},
			Entries:   ctxEntries(0, 14),
		},
		TableSpec{
			Name: "cr_ctx_hi", Stage: 2, Register: RoleCtxHi,
			Resources: ResourcesSpec{VLIWSlots: 2, ExactXbarBits: 80},
			Entries:   ctxEntries(14, 14),
		},
		TableSpec{
			Name: "cr_restore_apply", Stage: 3,
			Resources: ResourcesSpec{VLIWSlots: 4, TernXbarBits: 9, TCAMBytes: 424, ExactXbarBits: 32},
			Entries: []EntrySpec{{
				Name: "decompress",
				Match: []CondSpec{
					{Field: "drop", Value: Lit(0)},
					{Field: "meta.comp_enabled", Value: Lit(1)},
				},
				Action: "decompress_apply",
			}},
		},
	)
}

// ctxEntries builds the store/load entry pair of one context register
// holding header-image bytes [off, off+n).
func ctxEntries(off, n int64) []EntrySpec {
	window := map[string]ParamVal{"off": Lit(off), "len": Lit(n)}
	return []EntrySpec{
		{
			Name: "store",
			Match: []CondSpec{
				{Field: "pass", Value: Lit(0)},
				{Field: "in_port", Value: Ref("split_port")},
				{Field: "meta.comp_claimed", Value: Lit(1)},
			},
			Action: "header_store",
			Params: window,
		},
		{
			Name: "load",
			Match: []CondSpec{
				{Field: "pass", Value: Lit(0)},
				{Field: "in_port", Value: Ref("merge_port")},
				{Field: "drop", Value: Lit(0)},
				{Field: "meta.comp_enabled", Value: Lit(1)},
			},
			Action: "header_load",
			Params: window,
		},
	}
}
