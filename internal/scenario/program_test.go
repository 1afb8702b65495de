package scenario

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// TestProgramJSONRoundTrip: the Program section — the built-in compress
// kind and a fully serialized custom spec — survives the wire format
// byte-for-byte.
func TestProgramJSONRoundTrip(t *testing.T) {
	cases := []Scenario{
		{
			Name:     "compress",
			Topology: Testbed{},
			Program:  Program{Kind: "compress", Slots: 2048, MaxExpiry: 2},
			Traffic:  Traffic{SendBps: 4e9, FixedSize: 512},
			Opts:     RunOptions{Seed: 5, Quick: true},
		},
		{
			Name:     "custom-spec",
			Topology: Testbed{},
			Program: Program{
				Kind: "custom",
				Spec: prog.HeaderCompressSpec(prog.CompressParams{Slots: 64}),
			},
		},
		{
			Name:     "park-plus-compress",
			Topology: LeafSpine{Leaves: 4, Spines: 2},
			Parking:  Parking{Mode: sim.ParkEdge, Slots: 4096, MaxExpiry: 2},
			Program:  Program{Kind: "compress"},
		},
	}
	for _, want := range cases {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", want.Name, err)
		}
		var got Scenario
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", want.Name, b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip drifted:\nwant %+v\n got %+v\nwire %s", want.Name, want, got, b)
		}
	}
}

// TestProgramValidation pins every rejected Program combination.
func TestProgramValidation(t *testing.T) {
	ctx := context.Background()
	compSpec := prog.HeaderCompressSpec(prog.CompressParams{})
	parkSpec := prog.PayloadParkSpec(prog.ParkParams{
		Slots: 64, MaxExpiry: 1, SplitPort: 0, MergePort: 1,
		Blocks: 1, BaseBlocks: 1, BlockBytes: 160, MaxClock: 1 << 16,
	})
	recircSpec := prog.PayloadParkSpec(prog.ParkParams{
		Slots: 64, MaxExpiry: 1, SplitPort: 0, MergePort: 1,
		Recirculate: true, Blocks: 2, BaseBlocks: 1, BlockBytes: 160, MaxClock: 1 << 16,
	})
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown kind", Scenario{Topology: Testbed{}, Program: Program{Kind: "rohc"}}, "unknown Program.Kind"},
		{"custom no spec", Scenario{Topology: Testbed{}, Program: Program{Kind: "custom"}}, "needs a Spec"},
		{"compress with spec", Scenario{Topology: Testbed{}, Program: Program{Kind: "compress", Spec: compSpec}}, "custom"},
		{"spec without kind", Scenario{Topology: Testbed{}, Program: Program{Spec: compSpec}}, "without Program.Kind"},
		{"custom recirc", Scenario{Topology: Testbed{}, Program: Program{Kind: "custom", Spec: recircSpec}}, "recirculation"},
		{"double parking", Scenario{
			Topology: Testbed{},
			Parking:  Parking{Mode: sim.ParkEdge},
			Program:  Program{Kind: "custom", Spec: parkSpec},
		}, "same packets"},
		{"multiserver", Scenario{Topology: MultiServer{}, Program: Program{Kind: "compress"}}, "unsupported"},
		{"leafspine custom", Scenario{
			Topology: LeafSpine{Leaves: 4, Spines: 3},
			Program:  Program{Kind: "custom", Spec: compSpec},
		}, "Testbed-only"},
		{"compress everyhop", Scenario{
			Topology: LeafSpine{Leaves: 4, Spines: 3},
			Parking:  Parking{Mode: sim.ParkEveryHop},
			Program:  Program{Kind: "compress"},
		}, "every-hop"},
		{"compress geometry", Scenario{
			Topology: LeafSpine{Leaves: 4, Spines: 3},
			Program:  Program{Kind: "compress"},
		}, "merge port"},
	}
	for _, c := range cases {
		_, err := Run(ctx, c.sc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

// TestProgramFromJSONEndToEnd is the acceptance path: a policy spec
// serialized to a JSON file loads and runs against the testbed with no Go
// program behind it, and its counters land in the report.
func TestProgramFromJSONEndToEnd(t *testing.T) {
	sc := Scenario{
		Name:     "json-policy",
		Topology: Testbed{},
		Program: Program{
			Kind: "custom",
			Spec: prog.HeaderCompressSpec(prog.CompressParams{Slots: 4096}),
		},
		Traffic: Traffic{SendBps: 4e9, FixedSize: 512},
		Opts:    RunOptions{Seed: 3, Quick: true},
	}
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Scenario
	if err := json.Unmarshal(raw, &loaded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	rep, err := Run(context.Background(), loaded)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Programs) != 1 || rep.Programs[0].Program != "header-compress" {
		t.Fatalf("programs = %+v, want one header-compress entry", rep.Programs)
	}
	if rep.Programs[0].Counters["compressions"] == 0 {
		t.Error("the JSON-loaded policy never fired")
	}
	if !rep.Testbed.Healthy {
		t.Error("unhealthy below saturation")
	}
}

// TestProgramCompressReport: the built-in kind reports through the same
// path and composes with parking on the fabric.
func TestProgramCompressReport(t *testing.T) {
	rep, err := Run(context.Background(), Scenario{
		Topology: LeafSpine{Leaves: 4, Spines: 2},
		Parking:  Parking{Mode: sim.ParkEdge},
		Program:  Program{Kind: "compress"},
		Traffic:  Traffic{SendBps: 4e9},
		Opts:     RunOptions{Seed: 2, Quick: true},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Programs) != 4 {
		t.Fatalf("programs = %d, want one per ingress leaf", len(rep.Programs))
	}
	for _, pc := range rep.Programs {
		if pc.Program != "header-compress" || pc.Switch == "" {
			t.Errorf("bad program row: %+v", pc)
		}
	}
	var splits uint64
	for _, sw := range rep.Fabric.Switches {
		splits += sw.Splits
	}
	if splits == 0 {
		t.Error("parking idle alongside compression")
	}
}

// TestHostileProgram: a custom spec the pipe cannot run safely is an error
// from prog.Load and from Run, naming the table/entry and the key — each of
// these used to load and then panic on the first packets (a, b, d) or run to
// a plausible Report with every packet stale (c).
func TestHostileProgram(t *testing.T) {
	entry := func(s *prog.Spec, table string, i int) *prog.EntrySpec {
		for ti := range s.Tables {
			if s.Tables[ti].Name == table {
				return &s.Tables[ti].Entries[i]
			}
		}
		t.Fatalf("spec %s has no table %s", s.Name, table)
		return nil
	}
	compress := func() *prog.Spec { return prog.HeaderCompressSpec(prog.CompressParams{Slots: 4096}) }
	cases := []struct {
		name string
		spec *prog.Spec
		want []string
	}{
		{"index past the register", func() *prog.Spec {
			s := compress()
			entry(s, "cr_tagger_ti", 0).Params["slots"] = prog.Lit(100000)
			return s
		}(), []string{"cr_tagger_ti/advance", `"slots" = 100000`, "4096 cells"}},
		{"register narrower than the move", func() *prog.Spec {
			s := compress()
			for i := range s.Registers {
				if s.Registers[i].Role == prog.RoleCtxLo {
					s.Registers[i].Width = prog.Lit(8)
				}
			}
			return s
		}(), []string{"cr_ctx_lo/store", "14 B per cell (len)", "8 B wide"}},
		{"misspelt key", func() *prog.Spec {
			s := compress()
			p := entry(s, "cr_tagger_ti", 0).Params
			p["meta_ot"] = p["meta_out"]
			delete(p, "meta_out")
			return s
		}(), []string{"cr_tagger_ti/advance", `"meta_ot" is not declared`}},
		{"block past the parser's", func() *prog.Spec {
			s := prog.PayloadParkSpec(prog.ParkParams{
				Slots: 64, MaxExpiry: 1, SplitPort: 0, MergePort: 1,
				Blocks: 2, BaseBlocks: 2, BlockBytes: 8, MaxClock: 1 << 16,
			})
			entry(s, "pp_payload_1", 0).Params["block"] = prog.Lit(99)
			return s
		}(), []string{"pp_payload_1/store", `"block" = 99`, "[0, 2)"}},
	}
	check := func(name, via string, err error, want []string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: %s accepted the spec", name, via)
			return
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %s: err = %v, want it to contain %q", name, via, err, w)
			}
		}
	}
	for _, c := range cases {
		_, err := prog.Load(c.spec, prog.LoadOptions{Pipe: rmt.NewPipeline(c.name)})
		check(c.name, "prog.Load", err, c.want)
		_, err = Run(context.Background(), Scenario{
			Topology: Testbed{},
			Program:  Program{Kind: "custom", Spec: c.spec},
			Traffic:  Traffic{SendBps: 4e9, FixedSize: 512},
			Opts:     RunOptions{Quick: true},
		})
		check(c.name, "Run", err, c.want)
	}

	// The file CI feeds `ppbench -scenario` stays hostile.
	data, err := os.ReadFile("testdata/hostile-program.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), sc)
	check("testdata/hostile-program.json", "Run", err, cases[0].want)
}
