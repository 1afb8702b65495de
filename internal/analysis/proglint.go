package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/payloadpark/payloadpark/internal/prog"
)

// ProglintName labels the table-program findings. Unlike the three
// source analyzers, proglint inspects specs, not Go syntax: the built-in
// programs internal/prog emits, and every committed spec JSON file. Its
// suppression mechanism is the spec's own lint_allow list rather than a
// //pp: comment, so a waiver is reviewed in the file it excuses.
const ProglintName = "proglint"

// ProglintDoc documents the analyzer for ppvet -help.
const ProglintDoc = `statically lint table programs for liveness and consistency

Runs prog.Spec.Lint over the built-in programs (payloadpark,
header-compress, park+compress) and every committed spec file: dead
tables and entries (a match probing a metadata word nothing writes, a
recirculation match with no recirculate action, an entry shadowed by an
earlier one), unbound or unused $parameters, unknown actions and
condition fields, bindings an action does not declare, registers that do
not fit the table that binds them, unused registers and runtime knobs, and
metadata words two concurrently-live entries both write. Waive deliberate exceptions
with the spec's lint_allow list ("code:object" entries).`

// LintBuiltinSpecs lints the programs internal/prog itself emits. A
// finding here means the builtin generator and the rmt vocabulary
// drifted apart.
func LintBuiltinSpecs() []Finding {
	var out []Finding
	for _, s := range prog.BuiltinSpecs() {
		for _, f := range s.Lint() {
			out = append(out, Finding{
				Analyzer: ProglintName,
				File:     "builtin:" + s.Name,
				Message:  f.String(),
			})
		}
	}
	return out
}

// LintSpecFile strictly decodes one prog.Spec JSON document and lints
// it. Decode errors are findings too: a committed spec that no longer
// parses is at least as broken as a dead table.
func LintSpecFile(path string) []Finding {
	data, err := os.ReadFile(path)
	if err != nil {
		return []Finding{{Analyzer: ProglintName, File: path, Message: err.Error()}}
	}
	var spec prog.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return []Finding{{
			Analyzer: ProglintName, File: path,
			Message: fmt.Sprintf("not a valid prog.Spec: %v", err),
		}}
	}
	var out []Finding
	for _, f := range spec.Lint() {
		out = append(out, Finding{Analyzer: ProglintName, File: path, Message: f.String()})
	}
	return out
}

// FindSpecFiles walks root for JSON documents that declare the two keys
// every prog.Spec carries ("parser" and "phv_bits"), so the sweep lints
// committed example policies without a registry to maintain.
func FindSpecFiles(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc map[string]json.RawMessage
		if json.Unmarshal(data, &doc) != nil {
			return nil // not a JSON object; not a spec
		}
		if _, hasParser := doc["parser"]; !hasParser {
			return nil
		}
		if _, hasPHV := doc["phv_bits"]; !hasPHV {
			return nil
		}
		paths = append(paths, path)
		return nil
	})
	sort.Strings(paths)
	return paths, err
}
