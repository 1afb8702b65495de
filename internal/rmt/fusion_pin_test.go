package rmt_test

import (
	"reflect"
	"testing"

	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// TestBuiltinSpecsFuseTheirPayloadTables pins what the built-in specs compile
// to, so an edit to a spec, to Load's bank or to Compile cannot silently
// un-fuse them: the parking program's payload table is exactly one move step
// of one copy per direction per (pass, port) — 20 blocks on the ingress pipe,
// the other 28 on the recirculation pipe — and the combined program's is cut
// only where the compression tables sit between payload stages.
func TestBuiltinSpecsFuseTheirPayloadTables(t *testing.T) {
	const split, merge, other = rmt.PortID(1), rmt.PortID(2), rmt.PortID(9)
	type at struct {
		pipe string
		pass int
		port rmt.PortID
	}
	store := func(bytes int) []rmt.MoveShape { return []rmt.MoveShape{{Bytes: bytes, Spans: 1}} }
	load := func(bytes int) []rmt.MoveShape { return []rmt.MoveShape{{Load: true, Bytes: bytes, Spans: 1}} }
	park := prog.ParkParams{
		Slots: 8192, MaxExpiry: 1, SplitPort: int(split), MergePort: int(merge),
		BoundaryOffset: 42, Recirculate: true,
		Blocks: 48, BaseBlocks: 20, BlockBytes: 8, MaxClock: 1 << 16,
	}
	specs := []*prog.Spec{
		prog.PayloadParkSpec(park),
		prog.HeaderCompressSpec(prog.CompressParams{CompressPort: int(split), RestorePort: int(merge)}),
		prog.ParkCompressSpec(park, 0),
	}
	for _, tc := range []struct {
		spec *prog.Spec
		want map[at][]rmt.MoveShape // every (pipe, pass, port) not listed compiles no move
	}{
		{specs[0], map[at][]rmt.MoveShape{
			{"ingress", 0, split}: store(20 * 8), {"ingress", 0, merge}: load(20 * 8),
			{"recirc", 1, split}: store(28 * 8), {"recirc", 1, merge}: load(28 * 8),
		}},
		{specs[1], nil},
		{specs[2], map[at][]rmt.MoveShape{
			// Stage 2 holds blocks 0-1 and then the two context tables; stage 3
			// blocks 2-3 and then the restore table, which matches any port.
			{"ingress", 0, split}: append(append(store(2*8), store(2*8)...), store(16*8)...),
			{"ingress", 0, merge}: append(append(load(2*8), load(2*8)...), load(16*8)...),
			{"recirc", 1, split}:  store(28 * 8), {"recirc", 1, merge}: load(28 * 8),
		}},
	} {
		pipes := map[string]*rmt.Pipeline{"ingress": rmt.NewPipeline("ingress"), "recirc": rmt.NewPipeline("recirc")}
		if _, err := prog.Load(tc.spec, prog.LoadOptions{Pipe: pipes["ingress"], RecircPipe: pipes["recirc"]}); err != nil {
			t.Fatalf("load %s: %v", tc.spec.Name, err)
		}
		for _, pipe := range []string{"ingress", "recirc"} {
			for pass := 0; pass < 2; pass++ {
				for _, port := range []rmt.PortID{split, merge, other} {
					got, want := pipes[pipe].MoveSteps(pass, port), tc.want[at{pipe, pass, port}]
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s pipe, pass %d, port %d compiles to move steps %+v, want %+v", tc.spec.Name, pipe, pass, port, got, want)
					}
				}
			}
		}
	}
}
