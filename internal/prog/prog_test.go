package prog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
)

func parkParams() ParkParams {
	return ParkParams{
		Slots: 64, MaxExpiry: 1, SplitPort: 0, MergePort: 1,
		Blocks: 20, BaseBlocks: 20, BlockBytes: 8, MaxClock: 1 << 16,
	}
}

// TestSpecJSONRoundTrip pins the new-policies-are-JSON contract: every
// built-in spec survives marshal -> unmarshal -> marshal byte-identically
// and still loads onto a pipe.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range []*Spec{
		PayloadParkSpec(parkParams()),
		HeaderCompressSpec(CompressParams{Slots: 128, CompressPort: 0, RestorePort: 1}),
		ParkCompressSpec(parkParams(), 128),
	} {
		t.Run(spec.Name, func(t *testing.T) {
			blob, err := json.MarshalIndent(spec, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back Spec
			dec := json.NewDecoder(bytes.NewReader(blob))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			blob2, err := json.MarshalIndent(&back, "", "  ")
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Error("spec JSON not stable across a round trip")
			}
			pipe := rmt.NewPipeline("rt")
			if _, err := Load(&back, LoadOptions{Pipe: pipe}); err != nil {
				t.Fatalf("load of round-tripped spec: %v", err)
			}
		})
	}
}

func TestParamValJSON(t *testing.T) {
	for _, tc := range []struct {
		in   ParamVal
		want string
	}{
		{Lit(42), "42"},
		{Ref("split_port"), `"$split_port"`},
	} {
		blob, err := json.Marshal(tc.in)
		if err != nil {
			t.Fatalf("marshal %v: %v", tc.in, err)
		}
		if string(blob) != tc.want {
			t.Errorf("marshal = %s, want %s", blob, tc.want)
		}
		var back ParamVal
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if back != tc.in {
			t.Errorf("round trip = %#v, want %#v", back, tc.in)
		}
	}
	var v ParamVal
	if err := json.Unmarshal([]byte(`"no-dollar"`), &v); err == nil {
		t.Error("bare string accepted as a parameter reference")
	}
}

func TestLoadValidation(t *testing.T) {
	ok := PayloadParkSpec(parkParams())
	cases := []struct {
		name string
		spec *Spec
		opts func() LoadOptions
		want string
	}{
		{"nil spec", nil, func() LoadOptions { return LoadOptions{Pipe: rmt.NewPipeline("p")} }, "nil spec"},
		{"nil pipe", ok, func() LoadOptions { return LoadOptions{} }, "nil pipe"},
		{
			"undeclared override", ok,
			func() LoadOptions {
				return LoadOptions{Pipe: rmt.NewPipeline("p"), Params: map[string]int64{"bogus": 1}}
			},
			"declares no parameter",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(tc.spec, tc.opts()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	check := func(name string, mutate func(*Spec), want string) {
		t.Helper()
		spec := PayloadParkSpec(parkParams())
		mutate(spec)
		_, err := Load(spec, LoadOptions{Pipe: rmt.NewPipeline(name)})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, want)
		}
	}
	check("no name", func(s *Spec) { s.Name = "" }, "no name")
	check("no phv", func(s *Spec) { s.PHVBits = 0 }, "no PHV bits")
	check("bad pipe", func(s *Spec) { s.Tables[0].Pipe = "egress" }, "unknown pipe")
	check("recirc missing", func(s *Spec) { s.Tables[0].Pipe = "recirc" }, "none was supplied")
	check("bad stage", func(s *Spec) { s.Tables[0].Stage = rmt.StageCount }, "outside")
	check("bad register role", func(s *Spec) { s.Tables[0].Register = "nope" }, "undeclared register role")
	check("no entries", func(s *Spec) { s.Tables[0].Entries = nil }, "no entries")
	check("unknown action", func(s *Spec) { s.Tables[0].Entries[0].Action = "teleport" }, "unknown action")
	check("unknown field", func(s *Spec) { s.Tables[0].Entries[0].Match[0].Field = "moon_phase" }, "unknown condition field")
	check("dangling ref", func(s *Spec) { s.Tables[0].Entries[0].Match[0].Value = Ref("ghost") }, "no declared parameter")
	check("dup role", func(s *Spec) { s.Registers[1].Role = s.Registers[0].Role }, "duplicate register role")
	check("bare dollar", func(s *Spec) { s.Registers[0].Name = "reg$" }, "bare '$'")
}

// TestLoadBudgetViolationIsError pins the spec-is-user-input contract: a
// program that exceeds the hardware model's budgets comes back as an error,
// not the rmt layer's placement panic.
func TestLoadBudgetViolationIsError(t *testing.T) {
	p := parkParams()
	p.Slots = rmt.StageSRAMBytes // 2 slots/stage x 8 B blows per-stage SRAM
	spec := PayloadParkSpec(p)
	_, err := Load(spec, LoadOptions{Pipe: rmt.NewPipeline("big")})
	if err == nil || !strings.Contains(err.Error(), "does not fit the pipe") {
		t.Fatalf("err = %v, want does-not-fit error", err)
	}

	spec = PayloadParkSpec(parkParams())
	spec.PHVBits = rmt.PHVBits + 1
	if _, err := Load(spec, LoadOptions{Pipe: rmt.NewPipeline("phv")}); err == nil {
		t.Error("PHV overflow accepted")
	}
}

// TestLoadRefusesBankBeforeAllocating: at 100,000 slots the metadata table
// (800 KB) fits its stage but two 800 KB payload registers do not fit theirs.
// The 16 MB bank those registers would share must be refused on the budget,
// before a byte of it is allocated.
func TestLoadRefusesBankBeforeAllocating(t *testing.T) {
	p := parkParams()
	p.Slots = 100_000
	spec := PayloadParkSpec(p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(spec, LoadOptions{Pipe: rmt.NewPipeline("bank")})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "SRAM overflow placing register \"pload_tbl_1\"") {
		t.Fatalf("err = %v, want the second payload register of stage 2 refused", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 2<<20 {
		t.Errorf("the refused load allocated %d KB: more than the metadata table and the resolve pass", grown>>10)
	}
}

func TestParserAgreement(t *testing.T) {
	pipe := rmt.NewPipeline("shared")
	if _, err := Load(PayloadParkSpec(parkParams()), LoadOptions{Pipe: pipe}); err != nil {
		t.Fatalf("first load: %v", err)
	}
	// Same geometry: fine (a second instance sharing the parser).
	second := PayloadParkSpec(parkParams())
	second.Params["split_port"], second.Params["merge_port"] = 2, 3
	if _, err := Load(second, LoadOptions{Pipe: pipe}); err != nil {
		t.Fatalf("second load, same geometry: %v", err)
	}
	// Conflicting geometry: rejected.
	p := parkParams()
	p.BoundaryOffset = 16
	if _, err := Load(PayloadParkSpec(p), LoadOptions{Pipe: pipe}); err == nil ||
		!strings.Contains(err.Error(), "already extracts") {
		t.Errorf("geometry conflict: err = %v", err)
	}
}

func TestInstanceKnobs(t *testing.T) {
	ext := new(stats.Counter)
	inst, err := Load(PayloadParkSpec(parkParams()), LoadOptions{
		Pipe:     rmt.NewPipeline("knobs"),
		Params:   map[string]int64{"slots": 32},
		Counters: map[string]*stats.Counter{CtrSplits: ext},
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if v, _ := inst.Param("slots"); v != 32 {
		t.Errorf("slots = %d, want 32 (override)", v)
	}
	if v, ok := inst.Runtime(RTMaxExpiry); !ok || v != 1 {
		t.Errorf("max_expiry = %d,%v, want 1,true", v, ok)
	}
	if !inst.SetRuntime(RTMaxExpiry, 7) {
		t.Error("SetRuntime rejected a declared parameter")
	}
	if v, _ := inst.Runtime(RTMaxExpiry); v != 7 {
		t.Errorf("max_expiry after set = %d, want 7", v)
	}
	if inst.SetRuntime("bogus", 1) {
		t.Error("SetRuntime accepted an undeclared parameter")
	}
	if inst.Counter(CtrSplits) != ext {
		t.Error("external counter binding not honored")
	}
	if inst.Register(RoleMeta) == nil {
		t.Error("meta register role not recorded")
	}
	if got := inst.Occupied(RoleMeta); got != 0 {
		t.Errorf("fresh occupancy = %d, want 0", got)
	}
	if _, ok := inst.Counters()[CtrSplits]; !ok {
		t.Errorf("counters %v lack the bound %s", inst.Counters(), CtrSplits)
	}
	spec := inst.Spec()
	if tables := inst.Tables(); len(tables) != len(spec.Tables) || tables[0].Name != spec.Tables[0].Name ||
		len(tables[0].Rules) != len(spec.Tables[0].Entries) {
		t.Errorf("placed %d tables, want one per spec table in spec order", len(tables))
	}
	blocks, blockBytes, off := inst.ParkGeometry()
	if blocks != 20 || blockBytes != 8 || off != 0 {
		t.Errorf("geometry = %d,%d,%d, want 20,8,0", blocks, blockBytes, off)
	}
	if ports := inst.PPPorts(); len(ports) != 1 || ports[0] != 1 {
		t.Errorf("pp ports = %v, want [1]", ports)
	}
}

func TestCompiledParamAndRecircProbe(t *testing.T) {
	spec := PayloadParkSpec(parkParams())
	for _, tc := range []struct {
		params map[string]int64
		want   int64
	}{{nil, 0}, {map[string]int64{"split_port": 5}, 5}} {
		c, err := Compile(spec, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := c.Param("split_port"); !ok || v != tc.want {
			t.Errorf("params %v: split_port = %d,%v; want %d", tc.params, v, ok, tc.want)
		}
		if _, ok := c.Param("nope"); ok {
			t.Error("undeclared parameter resolved")
		}
	}
	if spec.UsesRecircPipe() {
		t.Error("base spec claims recirc pipe")
	}
	p := parkParams()
	p.Recirculate, p.Blocks = true, 48
	if !PayloadParkSpec(p).UsesRecircPipe() {
		t.Error("recirc spec denies recirc pipe")
	}
}

// TestInstallAtPortsIsCompileAtPorts: a spec compiled once and installed at
// ports 2/3 lowers every rule's conditions, and names every register and
// table (the compression spec's names carry $split_port), exactly as a
// compile at 2/3 does, and parking expects PayloadPark headers on port 3; a
// port parameter anywhere but a condition, pp_ports or a name is refused,
// since Install could not bind it there.
func TestInstallAtPortsIsCompileAtPorts(t *testing.T) {
	for _, spec := range []*Spec{PayloadParkSpec(parkParams()), HeaderCompressSpec(CompressParams{CompressPort: 0, RestorePort: 1})} {
		c, err := Compile(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		at, err := c.Install(rmt.NewPipeline("at"), nil, Ports{Split: 2, Merge: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Load(spec, LoadOptions{Pipe: rmt.NewPipeline("want"), Params: map[string]int64{"split_port": 2, "merge_port": 3}})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range at.Tables() {
			if w := want.Tables()[i].Name; m.Name != w {
				t.Errorf("%s: table %q, want %q", spec.Name, m.Name, w)
			}
			for j := range m.Rules {
				if got, w := m.Rules[j].Conds, want.Tables()[i].Rules[j].Conds; !reflect.DeepEqual(got, w) {
					t.Errorf("%s/%s: conditions %+v, want %+v", m.Name, m.Rules[j].Name, got, w)
				}
			}
		}
		for _, r := range spec.Registers {
			if got, w := at.Register(r.Role).Name(), want.Register(r.Role).Name(); got != w {
				t.Errorf("%s: register %q, want %q", spec.Name, got, w)
			}
		}
		if ports := at.PPPorts(); spec.Parser.PPPorts != nil && !slices.Equal(ports, []int{3}) {
			t.Errorf("pp ports = %v, want [3]", ports)
		}
	}
	bad := PayloadParkSpec(parkParams())
	bad.Registers[0].Cells = Ref("split_port")
	if _, err := Compile(bad, nil); err == nil || !strings.Contains(err.Error(), `register tbl_idx: cells: port parameter "$split_port" binds at install`) {
		t.Errorf("a register sized by a port parameter: err = %v", err)
	}
}

func TestActionVocabularyRegistered(t *testing.T) {
	names := rmt.ActionNames()
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for _, spec := range []*Spec{
		PayloadParkSpec(parkParams()),
		HeaderCompressSpec(CompressParams{CompressPort: 0, RestorePort: 1}),
	} {
		for _, tbl := range spec.Tables {
			for _, e := range tbl.Entries {
				if !set[e.Action] {
					t.Errorf("spec %s table %s uses unregistered action %q", spec.Name, tbl.Name, e.Action)
				}
			}
		}
	}
}
