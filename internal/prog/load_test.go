package prog

import (
	"testing"

	"github.com/payloadpark/payloadpark/internal/rmt"
)

// loadPark loads the parking spec the way bench's prog.load_us probe does.
func loadPark(tb testing.TB) *Instance {
	tb.Helper()
	inst, err := Load(PayloadParkSpec(ParkParams{
		Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1,
		Blocks: 20, BaseBlocks: 20, BlockBytes: 8, MaxClock: 1 << 16,
	}), LoadOptions{Pipe: rmt.NewPipeline("load")})
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// TestLoadAllocBudget keeps building the match programs inside the load's
// allocation budget from before they existed (895, when every condition was
// a closure): one step slice per program and one op arena, not one
// allocation per rule.
func TestLoadAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, func() { loadPark(t) }); allocs > 895 {
		t.Errorf("Load of the parking spec allocates %.0f/op, budget 895", allocs)
	}
}

// TestOccupiedDoesNotAllocate: occupancy is scanned once per leaf per fabric
// run and on every metrics scrape, 8192 cells at a time.
func TestOccupiedDoesNotAllocate(t *testing.T) {
	inst := loadPark(t)
	if allocs := testing.AllocsPerRun(10, func() { inst.Occupied(RoleMeta) }); allocs != 0 {
		t.Errorf("Occupied allocates %.0f/op, want 0", allocs)
	}
}

func BenchmarkLoadPark(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loadPark(b)
	}
}
