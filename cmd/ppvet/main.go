// Command ppvet runs the repo's invariant lint suite: static analyzers
// that enforce at lint time what the test suite otherwise catches at run
// time — determinism of the pinned packages, zero-alloc hot paths and the
// snake_case JSON report surface — and then cross-checks the zero-alloc
// marks against the compiler's escape analysis and api/escape_allowlist.txt.
//
// usage:
//
//	ppvet [-json] [-update] [packages]
//
// Packages default to ./... resolved from the current directory. Exit
// status is 1 when any finding survives suppression.
// -update rewrites the analysed packages' escape allowlist entries from
// the current build instead of reporting escape drift.
//
// Suppression: a //pp:<directive> comment with a reason, on or
// immediately above the flagged line, silences exactly one diagnostic
// (determinism: nondeterministic-ok; zeroalloc: alloc-ok; reportjson:
// json-ok). Unused or unknown annotations are findings themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/payloadpark/payloadpark/internal/analysis"
)

var analyzers = []*analysis.Analyzer{
	analysis.Determinism,
	analysis.Zeroalloc,
	analysis.ReportJSON,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON object instead of text")
	update := flag.Bool("update", false, "rewrite "+analysis.AllowlistPath+" from the current build")
	flag.Usage = usage
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := run(patterns, *update)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppvet: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		out := struct {
			Findings []analysis.Finding `json:"findings"`
			Count    int                `json:"count"`
		}{Findings: findings, Count: len(findings)}
		if out.Findings == nil {
			out.Findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "ppvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(relativize(f))
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "ppvet: %d findings\n", len(findings))
		}
		os.Exit(1)
	}
}

func run(patterns []string, update bool) ([]analysis.Finding, error) {
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		return nil, err
	}
	findings, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	root, err := analysis.ModuleDir(".")
	if err != nil {
		return nil, err
	}

	// The escape cross-check runs last, over the packages already loaded.
	escapes, err := analysis.Escapes(root, pkgs, update)
	return append(findings, escapes...), err
}

// relativize renders a finding with a cwd-relative path when that is
// shorter, matching how go vet prints.
func relativize(f analysis.Finding) string {
	if cwd, err := os.Getwd(); err == nil && f.File != "" {
		if rel, err := filepath.Rel(cwd, f.File); err == nil && !strings.HasPrefix(rel, "..") {
			f.File = rel
		}
	}
	return f.String()
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ppvet [-json] [-update] [packages]\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, firstLine(a.Doc))
	}
	fmt.Fprintf(os.Stderr, "  %-12s %s\n", analysis.EscapeName, firstLine(analysis.EscapeDoc))
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
