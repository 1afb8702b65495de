package prog

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
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

// misfit is a spec that breaks one placement rule only after most of it
// would have been placed piece by piece: good builds the spec, misfit breaks
// it, and rule is the text of the rmt rule it breaks.
type misfit struct {
	name, rule string
	good       func() *Spec
	misfit     func(*Spec)
}

func misfits() []misfit {
	lastOn := func(s *Spec, pipe string) *TableSpec {
		var last *TableSpec
		for i := range s.Tables {
			if pipeName(s.Tables[i].Pipe) == pipe {
				last = &s.Tables[i]
			}
		}
		return last
	}
	return []misfit{
		{
			name: "compress VLIW", rule: "VLIW overflow: 33 slots, 32 budget",
			good:   func() *Spec { return HeaderCompressSpec(CompressParams{CompressPort: 0, RestorePort: 1}) },
			misfit: func(s *Spec) { lastOn(s, "ingress").Resources.VLIWSlots = rmt.StageVLIWSlots + 1 },
		},
		{
			name: "park PHV", rule: "PHV overflow: 6080 bits used, 4800 available",
			good:   func() *Spec { return PayloadParkSpec(parkParams()) },
			misfit: func(s *Spec) { s.PHVBits = rmt.PHVBits },
		},
		{
			name: "recirc stage", rule: "VLIW overflow",
			good: func() *Spec {
				p := parkParams()
				p.Recirculate, p.Blocks = true, 48
				return PayloadParkSpec(p)
			},
			misfit: func(s *Spec) { lastOn(s, "recirc").Resources.VLIWSlots = rmt.StageVLIWSlots + 1 },
		},
		{
			name: "recirc binds ingress", rule: "neither placed nor in the layout",
			good: func() *Spec {
				p := parkParams()
				p.Recirculate, p.Blocks = true, 48
				return PayloadParkSpec(p)
			},
			// A copy of the last recirc table's register, on the ingress pipe
			// at the same stage: stage-local, but a pipe away.
			misfit: func(s *Spec) {
				t := lastOn(s, "recirc")
				for _, r := range s.Registers {
					if r.Role == t.Register {
						r.Role, r.Name, r.Pipe = "ingress_twin", "ingress_twin", ""
						s.Registers = append(s.Registers, r)
					}
				}
				t.Register = "ingress_twin"
			},
		},
	}
}

func (m misfit) spec() *Spec {
	s := m.good()
	m.misfit(s)
	return s
}

// requireFresh fails unless every pipe equals a new one of its name: PHV
// bits, resources and parser geometry by name, and then everything else —
// each stage's registers and MATs, the compiled programs — at once.
func requireFresh(t *testing.T, pipes map[string]*rmt.Pipeline) {
	t.Helper()
	for _, name := range sortedKeys(pipes) {
		pipe, fresh := pipes[name], rmt.NewPipeline(pipes[name].Name())
		if got := pipe.PHVBitsUsed(); got != 0 {
			t.Errorf("pipe %s: %d PHV bits used, want 0", name, got)
		}
		if got, want := pipe.Resources(), fresh.Resources(); got != want {
			t.Errorf("pipe %s: resources %+v, want %+v", name, got, want)
		}
		if got, want := *pipe.Parser(), *fresh.Parser(); got != want {
			t.Errorf("pipe %s: parser %+v, want %+v", name, got, want)
		}
		if !reflect.DeepEqual(pipe, fresh) {
			t.Errorf("pipe %s holds placed registers or MATs", name)
		}
	}
}

// frames runs a 64 B and a 1,500 B frame through the pipes, each split on
// port 0 and the result merged on port 1 (recirculating where the program
// asks), and returns every PHV and the serialized packet after each pass.
func frames(pipes map[string]*rmt.Pipeline) (out []*rmt.PHV, wire [][]byte) {
	b := packet.NewBuilder(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	for _, size := range []int{64, 1500} {
		pkt := b.UDP(packet.FiveTuple{Protocol: packet.IPProtoUDP, SrcPort: 7, DstPort: 80}, size, 1)
		for port := range rmt.PortID(2) {
			phv := &rmt.PHV{}
			pipes["ingress"].Parser().FillPHV(phv, pkt, port)
			pipes["ingress"].Process(phv)
			if phv.Recirc && pipes["recirc"] != nil {
				phv.Recirc, phv.Pass = false, 1
				pipes["recirc"].Process(phv)
			}
			out, wire = append(out, phv), append(wire, phv.Pkt.Serialize())
			pkt = phv.Pkt.Clone()
		}
	}
	return out, wire
}

// TestFailedLoadTouchesNoPipe: a spec that breaks a placement rule leaves
// every pipe it was given as a fresh one, so the good spec then loads onto
// them exactly as onto fresh pipes — same resources, same output.
func TestFailedLoadTouchesNoPipe(t *testing.T) {
	for _, m := range misfits() {
		t.Run(m.name, func(t *testing.T) {
			_, reused, err := loadFresh(m.spec())
			if err == nil || !strings.Contains(err.Error(), "does not fit the pipe") || !strings.Contains(err.Error(), m.rule) {
				t.Fatalf("err = %v, want the pipe refusing with %q", err, m.rule)
			}
			requireFresh(t, reused)
			if _, err := loadOn(m.good(), reused); err != nil {
				t.Fatalf("good spec on the refused pipes: %v", err)
			}
			_, fresh, err := loadFresh(m.good())
			if err != nil {
				t.Fatalf("good spec on fresh pipes: %v", err)
			}
			for name := range fresh {
				if got, want := reused[name].Resources(), fresh[name].Resources(); got != want {
					t.Errorf("pipe %s: resources %+v, want a fresh load's %+v", name, got, want)
				}
				if got, want := reused[name].PHVBitsUsed(), fresh[name].PHVBitsUsed(); got != want {
					t.Errorf("pipe %s: %d PHV bits, want a fresh load's %d", name, got, want)
				}
			}
			gotPHV, gotWire := frames(reused)
			wantPHV, wantWire := frames(fresh)
			for i := range wantPHV {
				if !samePHV(gotPHV[i], wantPHV[i]) || !bytes.Equal(gotWire[i], wantWire[i]) {
					t.Errorf("pass %d: the refused pipes' output differs from fresh pipes':\n got %+v\nwant %+v", i, gotPHV[i], wantPHV[i])
				}
			}
		})
	}
}

// TestLintReportsWhatPlacementRefuses: each misfit spec resolves cleanly, so
// only the placement check can flag it — once, naming the rmt rule.
func TestLintReportsWhatPlacementRefuses(t *testing.T) {
	for _, m := range misfits() {
		var got []LintFinding
		for _, f := range m.spec().Lint() {
			if f.Code == "bad-layout" {
				got = append(got, f)
			}
		}
		if len(got) != 1 || !strings.Contains(got[0].Detail, m.rule) {
			t.Errorf("%s: bad-layout findings %v, want one naming %q", m.name, got, m.rule)
		}
	}
}
