package prog

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/rmt"
)

// lintCodes extracts the finding codes for compact assertions.
func lintCodes(fs []LintFinding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Code
	}
	return out
}

func findLint(fs []LintFinding, code string) *LintFinding {
	for i := range fs {
		if fs[i].Code == code {
			return &fs[i]
		}
	}
	return nil
}

// The built-in programs are the linter's ground truth: every check must
// pass them clean, or the check models the vocabulary wrong.
func TestLintBuiltinsClean(t *testing.T) {
	for _, spec := range BuiltinSpecs() {
		if fs := spec.Lint(); len(fs) != 0 {
			for _, f := range fs {
				t.Errorf("%s: %s", spec.Name, f)
			}
		}
	}
}

// deadTableSpec declares a table probing a metadata word nothing writes:
// installable, but its entries can never fire.
func deadTableSpec() *Spec {
	return &Spec{
		Name:    "dead",
		PHVBits: 100,
		Tables: []TableSpec{{
			Name: "never", Stage: 2,
			Entries: []EntrySpec{{
				Name: "ghost",
				Match: []CondSpec{
					{Field: "meta.split_claimed", Value: Lit(1)},
				},
				Action: "recirculate",
			}},
		}},
	}
}

func TestLintDeadTable(t *testing.T) {
	fs := deadTableSpec().Lint()
	f := findLint(fs, "dead-table")
	if f == nil {
		t.Fatalf("want dead-table finding, got %v", lintCodes(fs))
	}
	if f.Object != "table never" || !strings.Contains(f.Detail, "meta.split_claimed") {
		t.Errorf("finding does not name the dead probe: %s", f)
	}
}

func TestLintAllowWaivesAndReportsUnused(t *testing.T) {
	s := deadTableSpec()
	s.LintAllow = []string{"dead-table:table never"}
	if fs := s.Lint(); len(fs) != 0 {
		t.Errorf("waived spec still reports %v", fs)
	}

	s.LintAllow = []string{"dead-table:table never", "unused-param:params/ghost"}
	fs := s.Lint()
	f := findLint(fs, "unused-lint-allow")
	if f == nil || f.Object != "unused-param:params/ghost" {
		t.Errorf("want unused-lint-allow for the stale waiver, got %v", fs)
	}
}

func TestLintUnboundAndUnusedParams(t *testing.T) {
	s := &Spec{
		Name:    "params",
		PHVBits: 100,
		Params:  map[string]int64{"spare": 7},
		Tables: []TableSpec{{
			Name: "t", Stage: 0,
			Entries: []EntrySpec{{
				Name:   "e",
				Match:  []CondSpec{{Field: "in_port", Value: Ref("typo_port")}},
				Action: "recirculate",
			}},
		}},
	}
	fs := s.Lint()
	if f := findLint(fs, "unbound-param"); f == nil || !strings.Contains(f.Detail, "typo_port") {
		t.Errorf("want unbound-param naming typo_port, got %v", fs)
	}
	if f := findLint(fs, "unused-param"); f == nil || f.Object != "params/spare" {
		t.Errorf("want unused-param for spare, got %v", fs)
	}
}

func TestLintUnknownActionAndField(t *testing.T) {
	s := &Spec{
		Name:    "unknown",
		PHVBits: 100,
		Tables: []TableSpec{{
			Name: "t", Stage: 0,
			Entries: []EntrySpec{
				{Name: "bad_action", Action: "telport"},
				{Name: "bad_field", Match: []CondSpec{{Field: "meta.warp", Value: Lit(1)}}, Action: "recirculate"},
			},
		}},
	}
	fs := s.Lint()
	if f := findLint(fs, "unknown-action"); f == nil || !strings.Contains(f.Detail, "telport") {
		t.Errorf("want unknown-action for telport, got %v", fs)
	}
	if f := findLint(fs, "unknown-field"); f == nil || !strings.Contains(f.Detail, "warp") {
		t.Errorf("want unknown-field for meta.warp, got %v", fs)
	}
}

func TestLintShadowedEntry(t *testing.T) {
	s := &Spec{
		Name:    "shadow",
		PHVBits: 100,
		Tables: []TableSpec{{
			Name: "t", Stage: 0,
			Entries: []EntrySpec{
				{Name: "broad", Match: []CondSpec{{Field: "in_port", Value: Lit(1)}}, Action: "recirculate"},
				{Name: "narrow", Match: []CondSpec{
					{Field: "in_port", Value: Lit(1)},
					{Field: "drop", Value: Lit(0)},
				}, Action: "recirculate"},
			},
		}},
	}
	fs := s.Lint()
	f := findLint(fs, "shadowed-entry")
	if f == nil || f.Object != "t/narrow" {
		t.Fatalf("want shadowed-entry for t/narrow, got %v", fs)
	}
}

func TestLintMetaOverlap(t *testing.T) {
	// Two taggers in different tables both publish to the default
	// meta.tbl_idx word and can match the same packet: the second write
	// clobbers the first. Routing one through meta_out fixes it.
	mk := func(metaOut *int64) *Spec {
		entry := EntrySpec{
			Name:   "advance",
			Match:  []CondSpec{{Field: "in_port", Value: Lit(1)}},
			Action: "advance_index",
			Params: map[string]ParamVal{"slots": Lit(8)},
		}
		second := entry
		if metaOut != nil {
			second.Params = map[string]ParamVal{"slots": Lit(8), "meta_out": Lit(*metaOut)}
		}
		return &Spec{
			Name:    "overlap",
			PHVBits: 100,
			Registers: []RegisterSpec{
				{Role: "a", Name: "a", Stage: 0, Width: Lit(8), Cells: Lit(1)},
				{Role: "b", Name: "b", Stage: 0, Width: Lit(8), Cells: Lit(1)},
			},
			Tables: []TableSpec{
				{Name: "ta", Stage: 0, Register: "a", Entries: []EntrySpec{entry}},
				{Name: "tb", Stage: 0, Register: "b", Entries: []EntrySpec{second}},
			},
		}
	}
	if f := findLint(mk(nil).Lint(), "meta-overlap"); f == nil {
		t.Errorf("want meta-overlap when both taggers write meta.tbl_idx")
	}
	out := int64(rmt.MetaCompTableIndex)
	if f := findLint(mk(&out).Lint(), "meta-overlap"); f != nil {
		t.Errorf("meta_out routing should clear the overlap, got %s", f)
	}
}

func TestLintRecircWithoutRecirculate(t *testing.T) {
	s := &Spec{
		Name:    "norecirc",
		PHVBits: 100,
		Tables: []TableSpec{{
			Name: "t", Pipe: "recirc", Stage: 0,
			Entries: []EntrySpec{{Name: "e", Action: "drop",
				Counters: map[string]string{"count": "drops"},
				Reasons:  map[string]string{"why": "test"}}},
		}},
	}
	f := findLint(s.Lint(), "dead-table")
	if f == nil || !strings.Contains(f.Detail, "recirculate") {
		t.Errorf("want dead-table citing the missing recirculate action, got %v", s.Lint())
	}
}

// Liveness is advisory: a spec with a dead table still compiles and
// installs, and Lint still reports the dead table.
func TestLintFindingsAreAdvisory(t *testing.T) {
	spec := deadTableSpec()
	c, err := Compile(spec, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := c.Install(rmt.NewPipeline("advisory"), nil, c.Ports(), nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if fs := spec.Lint(); findLint(fs, "dead-table") == nil {
		t.Errorf("Lint = %v, want dead-table", lintCodes(fs))
	}
}

// Every committed spec file under examples/ — a JSON document declaring
// "parser" and "phv_bits" — decodes strictly, as ppbench -program decodes
// it, and lints clean; its own lint_allow list is the only waiver.
func TestLintExampleSpecs(t *testing.T) {
	n := 0
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc map[string]json.RawMessage
		if json.Unmarshal(data, &doc) != nil || doc["parser"] == nil || doc["phv_bits"] == nil {
			return nil // not a spec
		}
		n++
		spec, err := decodeStrict(data)
		if err != nil {
			t.Errorf("%s: not a valid spec: %v", path, err)
			return nil
		}
		for _, f := range spec.Lint() {
			t.Errorf("%s: %s", path, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no committed spec files found under examples/")
	}
}
