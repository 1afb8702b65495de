package rmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// lazyGeometry is one bank layout for TestLazyBankMatchesFlat: cells rows of
// stride bytes, with registers of the given widths at the given row offsets.
type lazyGeometry struct {
	name          string
	cells, stride int
	offs, widths  []int
	fused         bool // the registers tile the row: one move may span it
}

func lazyGeometries() []lazyGeometry {
	payload := lazyGeometry{name: "payload 20x8 B, 2500 rows", cells: 2500, stride: 160, fused: true}
	for k := 0; k < 20; k++ {
		payload.offs, payload.widths = append(payload.offs, 8*k), append(payload.widths, 8)
	}
	return []lazyGeometry{
		payload, // 128 rows a chunk: 19 full chunks + 68
		{name: "stand-alone 8 B, 40000 rows", cells: 40_000, stride: 8, offs: []int{0}, widths: []int{8}},
		{name: "mixed 8+4+16 B, 20000 rows", cells: 20_000, stride: 28, offs: []int{0, 8, 12}, widths: []int{8, 4, 16}, fused: true},
		// A row wider than bankChunkBytes: every chunk is one row.
		{name: "one-row chunks", cells: 5, stride: bankChunkBytes + 24, offs: []int{0, bankChunkBytes + 8}, widths: []int{8, 16}},
	}
}

// TestLazyBankMatchesFlat: a bank that creates chunks on first write answers
// every access exactly like a flat, eagerly zeroed row-major array — seeded
// random RMW writes, block-move stores and loads (a load of a row never
// written included), Snapshots and occupancy counts — and holds memory only
// for the chunks a write reached, each sized to the rows it holds.
func TestLazyBankMatchesFlat(t *testing.T) {
	for _, geo := range lazyGeometries() {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", geo.name, seed), func(t *testing.T) { checkLazyBank(t, geo, seed) })
		}
	}
}

func checkLazyBank(t *testing.T, geo lazyGeometry, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b := newBank(geo.cells, geo.stride)
	regs := make([]*Register, len(geo.offs))
	for j := range regs {
		regs[j] = &Register{name: fmt.Sprintf("r%d", j), width: geo.widths[j], cells: geo.cells, bank: b, off: geo.offs[j]}
	}
	rows := b.mask + 1
	flat := make([]byte, geo.cells*geo.stride)
	written := make([]bool, len(b.chunks))
	cell := func(j, i int) []byte { return flat[i*geo.stride+geo.offs[j]:][:geo.widths[j]] }

	// check holds the bank's memory to the chunks written so far.
	check := func(op string) {
		t.Helper()
		for k, c := range b.chunks {
			want := 0
			if written[k] {
				want = min(rows, geo.cells-k*rows) * geo.stride
			}
			if c == nil && want != 0 || len(c) != want {
				t.Fatalf("after %s: chunk %d holds %d B, want %d (written %v)", op, k, len(c), want, written[k])
			}
		}
	}

	// The first access is a merge load of the last row, never written.
	ops := []int{2}
	for n := 0; n < 400; n++ {
		ops = append(ops, rng.Intn(5))
	}
	for n, op := range ops {
		j, i := rng.Intn(len(regs)), rng.Intn(geo.cells)
		if n == 0 {
			i = geo.cells - 1
		}
		r := regs[j]
		switch op {
		case 0: // RMW: read the cell, then rewrite it (a zero leading word half the time)
			ctx := &Ctx{reg: r}
			ctx.RMW(i, func(c []byte) {
				if !bytes.Equal(c, cell(j, i)) {
					t.Fatalf("op %d: RMW of r%d[%d] read %x, flat %x", n, j, i, c, cell(j, i))
				}
				rng.Read(c)
				if rng.Intn(2) == 0 {
					clear(c[:4])
				}
				copy(cell(j, i), c)
			})
			written[i/rows] = true
		case 1, 2: // a block-move store or load, of one cell or the whole fused row
			from, width := geo.offs[j], geo.widths[j]
			if geo.fused && rng.Intn(3) == 0 {
				r, from, width = regs[0], 0, geo.stride
			}
			m := &moveRun{load: op == 2, need: width, spans: []span{{reg: r, n: width, clr: width}}}
			phv := &PHV{Park: make([]byte, width)}
			phv.Meta[MetaTableIndex] = uint32(i)
			ref := flat[i*geo.stride+from:][:width]
			if m.load {
				want := bytes.Clone(ref)
				m.run(phv)
				if !bytes.Equal(phv.Park, want) {
					t.Fatalf("op %d: load of row %d at %d read %x, flat %x", n, i, from, phv.Park, want)
				}
				clear(ref)
			} else {
				rng.Read(phv.Park)
				m.run(phv)
				copy(ref, phv.Park)
			}
			written[i/rows] = true
		case 3:
			if got := r.Snapshot(i); !bytes.Equal(got, cell(j, i)) {
				t.Fatalf("op %d: Snapshot r%d[%d] = %x, flat %x", n, j, i, got, cell(j, i))
			}
		case 4:
			want := 0
			for c := 0; c < geo.cells; c++ {
				if binary.BigEndian.Uint32(cell(j, c)) != 0 {
					want++
				}
			}
			if got := r.Occupied(); got != want {
				t.Fatalf("op %d: r%d occupied %d, flat %d", n, j, got, want)
			}
		}
		check(fmt.Sprintf("op %d (kind %d)", n, op))
	}
	// Every cell reads back; reading creates nothing.
	for j, r := range regs {
		for i := 0; i < geo.cells; i += 1 + i/64 {
			if got := r.Snapshot(i); !bytes.Equal(got, cell(j, i)) {
				t.Fatalf("final Snapshot r%d[%d] = %x, flat %x", j, i, got, cell(j, i))
			}
		}
	}
	check("the final Snapshots")
}
