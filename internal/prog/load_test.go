package prog

import (
	"runtime"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// loadPark loads the parking spec onto pipe the way bench's prog.load_us
// probe does.
func loadPark(tb testing.TB, pipe *rmt.Pipeline) *Instance {
	tb.Helper()
	inst, err := Load(PayloadParkSpec(ParkParams{
		Slots: 8192, MaxExpiry: 1, SplitPort: 0, MergePort: 1,
		Blocks: 20, BaseBlocks: 20, BlockBytes: 8, MaxClock: 1 << 16,
	}), LoadOptions{Pipe: pipe})
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
	if allocs := testing.AllocsPerRun(20, func() { loadPark(t, rmt.NewPipeline("load")) }); allocs > 895 {
		t.Errorf("Load of the parking spec allocates %.0f/op, budget 895", allocs)
	}
}

// TestLoadTouchesNoRegisterRow: a load declares the whole table but
// allocates no row of it — 8192 rows of 168 B would be 1.4 MB — and an
// untouched table reads empty.
func TestLoadTouchesNoRegisterRow(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst := loadPark(t, rmt.NewPipeline("load"))
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 256<<10 {
		t.Errorf("Load of the parking spec allocates %d KB, want the table's rows left to their first write", grown>>10)
	}
	if got := inst.Register(RoleMeta).SRAMBytes(); got != 8192*8 {
		t.Errorf("the EXP/CLK register declares %d B, want %d", got, 8192*8)
	}
	if n := inst.Occupied(RoleMeta); n != 0 {
		t.Errorf("a fresh table holds %d parked payloads", n)
	}
}

// TestOccupiedDoesNotAllocate: occupancy is scanned once per leaf per fabric
// run, on every metrics scrape and every control tick, 8192 cells at a
// time. A payload is parked first, so the count reads a row a write made.
func TestOccupiedDoesNotAllocate(t *testing.T) {
	pipe := rmt.NewPipeline("occupied")
	inst := loadPark(t, pipe)
	b := packet.NewBuilder(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	phv := pipe.AcquirePHV()
	pipe.Parser().FillPHV(phv, b.UDP(packet.FiveTuple{Protocol: packet.IPProtoUDP, DstPort: 80}, 600, 1), 0)
	pipe.Process(phv)
	if n := inst.Occupied(RoleMeta); n != 1 {
		t.Fatalf("one split left %d parked payloads, want 1", n)
	}
	if allocs := testing.AllocsPerRun(10, func() { inst.Occupied(RoleMeta) }); allocs != 0 {
		t.Errorf("Occupied allocates %.0f/op, want 0", allocs)
	}
}

func BenchmarkLoadPark(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loadPark(b, rmt.NewPipeline("load"))
	}
}
