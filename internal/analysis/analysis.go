// Package analysis is ppvet's static-analysis framework: a minimal,
// offline reimplementation of the golang.org/x/tools/go/analysis API
// surface this repo's lint suite needs, built only on the standard
// library (go/ast, go/types, and a `go list -export` driver).
//
// The repo's four pinned invariants — deterministic Reports across
// runs, zero-alloc steady-state hot paths, a complete
// snake_case JSON surface, and budget-valid table programs — are all
// runtime facts guarded by tests that catch violations after they are
// written. The analyzers in this package shift those checks left to
// lint time: cmd/ppvet runs them over the whole tree as a CI gate, so
// a stray time.Now in internal/sim or an allocating expression in an
// annotated hot path fails `ppvet ./...` with a position and an
// explanation instead of surfacing three PRs later as a flaky golden.
//
// The Analyzer/Pass/Diagnostic types deliberately mirror
// golang.org/x/tools/go/analysis so the suite can migrate to the real
// framework (and `go vet -vettool`) mechanically once the dependency
// is available; the x/tools module cannot be vendored here, so the
// driver half (load.go) stands in for go/packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis pass: a named checker run once per
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string

	// Doc is the analyzer's documentation, shown by ppvet -help.
	Doc string

	// Directive is the //pp: suppression directive that silences this
	// analyzer's diagnostics when it appears (with a reason) on or
	// immediately above the flagged line; empty means the analyzer's
	// diagnostics cannot be suppressed.
	Directive string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the module path of the tree under analysis; analyzers
	// use it to decide whether a cross-package type is "ours" (its
	// declaration can be fixed) or external.
	Module string

	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: what ppvet prints, what -json
// serializes, and what the fixture tests match against.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Pos renders the finding's file:line:col prefix.
func (f Finding) Pos() string {
	if f.File == "" {
		return "-"
	}
	return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos(), f.Analyzer, f.Message)
}
