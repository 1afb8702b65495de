package rmt

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
)

var (
	mac1 = packet.MAC{2, 0, 0, 0, 0, 1}
	mac2 = packet.MAC{2, 0, 0, 0, 0, 2}
	ft   = packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 0, 0, 2},
		SrcPort: 7777, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
)

func testPkt(t testing.TB, size int) *packet.Packet {
	t.Helper()
	return packet.NewBuilder(mac1, mac2).UDP(ft, size, 1)
}

// fld resolves a condition field the vocabulary is known to hold.
func fld(name string) Field {
	f, err := LookupField(name)
	if err != nil {
		panic(err)
	}
	return f
}

// conds compiles declarative conditions that name no runtime parameter.
func conds(t testing.TB, cs ...Cond) []CondOp {
	t.Helper()
	ops, err := CompileConds(nil, cs, nil)
	if err != nil {
		t.Fatalf("CompileConds(%v): %v", cs, err)
	}
	return ops
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want substring %q", r, want)
		}
	}()
	f()
}

func TestRegisterRMWSemantics(t *testing.T) {
	p := NewPipeline("test")
	reg := p.NewRegister(0, "counter", 8, 4)
	mat := &MAT{
		Name: "inc",
		Reg:  reg,
		Rules: []Rule{{
			Name: "always",
			Action: func(c *Ctx) {
				c.RMW(2, func(cell []byte) {
					v := binary.BigEndian.Uint64(cell)
					binary.BigEndian.PutUint64(cell, v+1)
				})
			},
		}},
	}
	p.AddMAT(0, mat)
	phv := &PHV{Pkt: testPkt(t, 100)}
	for i := 0; i < 5; i++ {
		p.Process(phv)
	}
	if got := binary.BigEndian.Uint64(reg.Snapshot(2)); got != 5 {
		t.Errorf("cell 2 = %d, want 5", got)
	}
	if got := binary.BigEndian.Uint64(reg.Snapshot(0)); got != 0 {
		t.Errorf("cell 0 = %d, want 0 (untouched)", got)
	}
}

func TestDoubleRegisterAccessPanics(t *testing.T) {
	p := NewPipeline("test")
	reg := p.NewRegister(1, "r", 4, 2)
	p.AddMAT(1, &MAT{
		Name: "double",
		Reg:  reg,
		Rules: []Rule{{
			Action: func(c *Ctx) {
				c.RMW(0, func([]byte) {})
				c.RMW(1, func([]byte) {}) // illegal second access
			},
		}},
	})
	mustPanic(t, "one stateful access", func() {
		p.Process(&PHV{Pkt: testPkt(t, 100)})
	})
}

func TestRegisterAccessWithoutBindingPanics(t *testing.T) {
	p := NewPipeline("test")
	p.AddMAT(0, &MAT{
		Name: "nobind",
		Rules: []Rule{{
			Action: func(c *Ctx) { c.RMW(0, func([]byte) {}) },
		}},
	})
	mustPanic(t, "binds none", func() {
		p.Process(&PHV{Pkt: testPkt(t, 100)})
	})
}

func TestRegisterIndexOutOfRangePanics(t *testing.T) {
	p := NewPipeline("test")
	reg := p.NewRegister(0, "r", 4, 2)
	p.AddMAT(0, &MAT{
		Name: "oob",
		Reg:  reg,
		Rules: []Rule{{
			Action: func(c *Ctx) { c.RMW(2, func([]byte) {}) },
		}},
	})
	mustPanic(t, "out of range", func() {
		p.Process(&PHV{Pkt: testPkt(t, 100)})
	})
}

func TestFirstMatchingRuleFires(t *testing.T) {
	p := NewPipeline("test")
	var fired []string
	p.AddMAT(0, &MAT{
		Name: "ordered",
		Rules: []Rule{
			{Name: "a", Conds: conds(t, Cond{Field: fld("in_port"), Value: 1}),
				Action: func(*Ctx) { fired = append(fired, "a") }},
			{Name: "b", Action: func(*Ctx) { fired = append(fired, "b") }},
		},
	})
	p.Process(&PHV{Pkt: testPkt(t, 64), InPort: 1})
	p.Process(&PHV{Pkt: testPkt(t, 64), InPort: 9})
	if got := strings.Join(fired, ","); got != "a,b" {
		t.Errorf("fired = %s, want a,b", got)
	}
}

// TestFitRules: each placement rule refuses a layout with its own message,
// and a refused Place leaves every pipe as it was.
func TestFitRules(t *testing.T) {
	reg := func(stage, width, cells int) *Register { return NewRegister(stage, "r", width, cells) }
	mat := func(stage int, r *Register, res Resources) *MAT {
		return &MAT{Name: "m", Stage: stage, Reg: r, Res: res}
	}
	for _, tc := range []struct {
		name string
		prep func(p *Pipeline) // what the pipe holds already
		add  func(p *Pipeline) []Layout
		want string
	}{
		{name: "phv", prep: func(p *Pipeline) { mustPlace(Layout{Pipe: p, PHVBits: PHVBits - 10}) },
			add: func(p *Pipeline) []Layout { return []Layout{{Pipe: p, PHVBits: 11}} }, want: "PHV overflow"},
		{name: "phv with park blocks", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, PHVBits: PHVBits - 20*8*8 + 1, Blocks: 20, BlockBytes: 8}}
		}, want: "PHV overflow: 4801 bits used, 4800 available"},
		{name: "parser agreement", prep: func(p *Pipeline) { mustPlace(Layout{Pipe: p, PHVBits: 1, Blocks: 20, BlockBytes: 8}) },
			add: func(p *Pipeline) []Layout {
				return []Layout{{Pipe: p, PHVBits: 1, Blocks: 20, BlockBytes: 8, ParkOffset: 16}}
			},
			want: "already extracts 20x8B blocks at offset 0, the program needs 20x8B at offset 16"},
		{name: "register stage", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, Banks: [][]*Register{{reg(StageCount, 4, 1)}}}}
		}, want: "stage 12 outside [0,12)"},
		{name: "register width", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, Banks: [][]*Register{{reg(0, 17, 1)}}}}
		}, want: "width 17B outside (0,16]"},
		{name: "register cells", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, Banks: [][]*Register{{reg(0, 4, 0)}}}}
		}, want: "at least one cell"},
		{name: "sram", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, Banks: [][]*Register{{reg(0, 16, StageSRAMBytes)}}}} // 16x budget
		}, want: "stage 0 SRAM overflow"},
		{name: "sram across banks", prep: func(p *Pipeline) { p.NewRegister(1, "held", 8, StageSRAMBytes/16) },
			add: func(p *Pipeline) []Layout {
				return []Layout{{Pipe: p, Banks: [][]*Register{{reg(1, 8, StageSRAMBytes/16)}, {reg(1, 1, 1)}}}}
			}, want: "stage 1 SRAM overflow"},
		{name: "mat stage", add: func(p *Pipeline) []Layout { return []Layout{{Pipe: p, MATs: []*MAT{mat(-1, nil, Resources{})}}} },
			want: "stage -1 outside [0,12)"},
		{name: "negative resource", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, MATs: []*MAT{mat(0, nil, Resources{VLIWSlots: -4})}}}
		}, want: "negative resource"},
		{name: "stage locality", add: func(p *Pipeline) []Layout {
			r := reg(3, 4, 1)
			return []Layout{{Pipe: p, Banks: [][]*Register{{r}}, MATs: []*MAT{mat(4, r, Resources{})}}}
		}, want: "stage-local"},
		{name: "unplaced register", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, MATs: []*MAT{mat(3, reg(3, 4, 1), Resources{})}}}
		}, want: "neither placed nor in the layout"},
		{name: "register MAT ports", prep: func(p *Pipeline) {
			for i := 0; i < MaxRegisterMATsPerStage-1; i++ {
				p.AddMAT(0, &MAT{Name: "m", Reg: p.NewRegister(0, "r", 4, 1)})
			}
		}, add: func(p *Pipeline) []Layout {
			a, b := reg(0, 4, 1), reg(0, 4, 1)
			return []Layout{{Pipe: p, Banks: [][]*Register{{a, b}}, MATs: []*MAT{mat(0, a, Resources{}), mat(0, b, Resources{})}}}
		}, want: "stage 0 exceeds 4 register MATs"},
		{name: "vliw", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, MATs: []*MAT{mat(2, nil, Resources{VLIWSlots: StageVLIWSlots + 1})}}}
		}, want: "stage 2 VLIW overflow: 33 slots, 32 budget"},
		{name: "vliw across mats", prep: func(p *Pipeline) { p.AddMAT(2, &MAT{Name: "held", Res: Resources{VLIWSlots: 30}}) },
			add: func(p *Pipeline) []Layout {
				return []Layout{{Pipe: p, MATs: []*MAT{mat(2, nil, Resources{VLIWSlots: 1}), mat(2, nil, Resources{VLIWSlots: 2})}}}
			}, want: "stage 2 VLIW overflow: 33 slots"},
		{name: "vliw wrap", prep: func(p *Pipeline) { p.AddMAT(2, &MAT{Name: "held", Res: Resources{VLIWSlots: 1}}) },
			add: func(p *Pipeline) []Layout {
				return []Layout{{Pipe: p, MATs: []*MAT{mat(2, nil, Resources{VLIWSlots: math.MaxInt})}}}
			}, want: "stage 2 VLIW overflow"},
		{name: "tcam", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, MATs: []*MAT{mat(5, nil, Resources{TCAMBytes: StageTCAMBytes + 1})}}}
		}, want: "stage 5 TCAM overflow"},
		{name: "second pipe", add: func(p *Pipeline) []Layout {
			// The first layout fits; the second does not, so neither is placed.
			return []Layout{{Pipe: p, PHVBits: 100, Banks: [][]*Register{{reg(0, 8, 64)}}},
				{Pipe: NewPipeline("recirc"), MATs: []*MAT{mat(0, nil, Resources{VLIWSlots: StageVLIWSlots + 1})}}}
		}, want: "stage 0 VLIW overflow"},
		{name: "two layouts for one pipe", add: func(p *Pipeline) []Layout {
			return []Layout{{Pipe: p, PHVBits: 1}, {Pipe: p, PHVBits: 1}}
		}, want: `pipe "fit" has two layouts`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, fresh := NewPipeline("fit"), NewPipeline("fit")
			if tc.prep != nil {
				tc.prep(p)
				tc.prep(fresh)
			}
			ls := tc.add(p)
			if err := Fit(ls...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Fit: err = %v, want substring %q", err, tc.want)
			}
			if err := Place(ls...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Place: err = %v, want substring %q", err, tc.want)
			}
			for _, l := range ls {
				if l.Pipe != p {
					fresh = NewPipeline(l.Pipe.name)
				}
				if !reflect.DeepEqual(l.Pipe, fresh) {
					t.Errorf("a refused Place changed pipe %q", l.Pipe.name)
				}
			}
		})
	}
}

func TestResourceAccounting(t *testing.T) {
	p := NewPipeline("test")
	// One register of 1/4 the stage budget in stage 2, plus a ternary MAT.
	cells := StageSRAMBytes / 4 / 8
	p.NewRegister(2, "quarter", 8, cells)
	p.AddMAT(0, &MAT{Name: "tern", Res: Resources{
		TCAMBytes: StageTCAMBytes / 2, VLIWSlots: 4, ExactXbarBits: 128, TernXbarBits: 136,
	}})
	u := p.Resources()
	if got := u.SRAMBytesPerStage[2]; got != cells*8 {
		t.Errorf("stage 2 SRAM = %d, want %d", got, cells*8)
	}
	wantPeak := 100 * float64(cells*8) / StageSRAMBytes
	if diff := u.SRAMPeakPct - wantPeak; diff < -0.01 || diff > 0.01 {
		t.Errorf("peak SRAM%% = %v, want %v", u.SRAMPeakPct, wantPeak)
	}
	wantAvg := wantPeak / StageCount
	if diff := u.SRAMAvgPct - wantAvg; diff < -0.01 || diff > 0.01 {
		t.Errorf("avg SRAM%% = %v, want %v", u.SRAMAvgPct, wantAvg)
	}
	if u.TCAMPct <= 0 || u.VLIWPct <= 0 || u.ExactXbarPct <= 0 || u.TernXbarPct <= 0 {
		t.Errorf("expected nonzero resource percentages: %+v", u)
	}
}

func TestParserExtractsBlocks(t *testing.T) {
	p := NewPipeline("test")
	p.Parser().ExtractPayloadBlocks(20, 8) // 160 bytes
	pkt := testPkt(t, 42+200)              // 200B payload
	phv := p.AcquirePHV()
	p.Parser().FillPHV(phv, pkt, 5)
	if phv.GetMeta(MetaPayloadOK) != 1 {
		t.Fatal("payload OK flag not set for 200B payload")
	}
	// The park region is the payload prefix itself, not a copy.
	if !bytes.Equal(phv.Park, pkt.Payload[:160]) || &phv.Park[0] != &pkt.Payload[0] {
		t.Errorf("park region of %d B does not alias the payload prefix", len(phv.Park))
	}
	if phv.InPort != 5 {
		t.Errorf("inPort = %d, want 5", phv.InPort)
	}
}

func TestParserSkipsSmallPayload(t *testing.T) {
	p := NewPipeline("test")
	p.Parser().ExtractPayloadBlocks(20, 8)
	pkt := testPkt(t, 42+159) // payload one byte short
	phv := p.AcquirePHV()
	p.Parser().FillPHV(phv, pkt, 0)
	if phv.GetMeta(MetaPayloadOK) != 0 || phv.Park != nil {
		t.Error("small payload must not be lifted into blocks")
	}
}

func TestParserSkipsPPPackets(t *testing.T) {
	p := NewPipeline("test")
	p.Parser().ExtractPayloadBlocks(20, 8)
	pkt := testPkt(t, 42+200)
	pkt.PP = &packet.PPHeader{Enabled: true}
	phv := p.AcquirePHV()
	p.Parser().FillPHV(phv, pkt, 0)
	if phv.GetMeta(MetaPayloadOK) != 0 {
		t.Error("packets already carrying a PP header must not re-split")
	}
}

func TestParserPHVBudgetIncludesBlocks(t *testing.T) {
	p := NewPipeline("test")
	p.Parser().ExtractPayloadBlocks(20, 8)
	if got := p.PHVBitsUsed(); got != 20*8*8 {
		t.Errorf("PHV bits = %d, want %d", got, 20*8*8)
	}
}

func TestMarkDrop(t *testing.T) {
	phv := &PHV{}
	phv.MarkDrop("premature eviction")
	if !phv.Drop || phv.DropWhy != "premature eviction" {
		t.Errorf("drop state = %v %q", phv.Drop, phv.DropWhy)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	phv := &PHV{}
	phv.SetMeta(MetaTableIndex, 1234)
	phv.SetMeta(MetaClock, 77)
	if phv.GetMeta(MetaTableIndex) != 1234 || phv.GetMeta(MetaClock) != 77 {
		t.Error("meta words lost")
	}
}
