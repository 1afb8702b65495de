package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism flags nondeterminism sources inside the packages whose
// behaviour is pinned byte-identical across runs and worker counts (the
// Report identity and sim-vs-live parity guarantees): wall-clock reads,
// the globally seeded math/rand source, map iteration, and select
// statements that race ready cases.
// Legitimate sites — wall-clock progress reporting, map ranges whose
// results are sorted before use — carry a //pp:nondeterministic-ok
// annotation with the reason.
var Determinism = &Analyzer{
	Name:      "determinism",
	Directive: DirNondeterministicOK,
	Doc: `flag nondeterminism sources in the deterministic packages

In ` + strings.Join(deterministicPkgs, ", ") + `: calls to time.Now/
Since/Until, package-level math/rand functions (the shared global
source), range over map values (iteration order varies per run), and
select statements with two or more communication cases (ready cases are
chosen pseudorandomly). Shift-lefts the engine-order, run-twice and
golden determinism tests.`,
	Run: runDeterminism,
}

// deterministicPkgs are the package-path suffixes whose outputs must be
// bit-stable; everything outside them may use the wall clock freely.
var deterministicPkgs = []string{"sim", "core", "ctrl", "rmt", "maglev", "prog"}

// isDeterministicPkg matches path against the pinned package set.
func isDeterministicPkg(path string) bool {
	for _, name := range deterministicPkgs {
		if path == name || strings.HasSuffix(path, "/"+name) {
			return true
		}
	}
	return false
}

// timeFuncs are the wall-clock reads; everything else in package time
// (constants, Duration arithmetic) is deterministic.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the package-level math/rand functions that build
// explicitly seeded generators rather than touching the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDetCall(pass, n)
			case *ast.RangeStmt:
				if t := pass.TypesInfo.Types[n.X].Type; t != nil && rangesOverMap(t) {
					pass.Reportf(n.Pos(), "range over %s: map iteration order is nondeterministic; iterate a sorted key slice or annotate //pp:nondeterministic-ok", types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			case *ast.SelectStmt:
				comms := 0
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					pass.Reportf(n.Pos(), "select with %d communication cases: a ready case is chosen pseudorandomly", comms)
				}
			}
			return true
		})
	}
	return nil
}

// rangesOverMap reports whether ranging over a value of type t iterates
// a map — directly, or through a type parameter whose every structural
// term is a map (e.g. M ~map[string]V).
func rangesOverMap(t types.Type) bool {
	if _, isMap := t.Underlying().(*types.Map); isMap {
		return true
	}
	tp, isParam := types.Unalias(t).(*types.TypeParam)
	if !isParam {
		return false
	}
	iface, isIface := tp.Constraint().Underlying().(*types.Interface)
	if !isIface {
		return false
	}
	sawTerm := false
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		union, isUnion := iface.EmbeddedType(i).(*types.Union)
		if !isUnion {
			continue
		}
		for j := 0; j < union.Len(); j++ {
			sawTerm = true
			if _, isMap := union.Term(j).Type().Underlying().(*types.Map); !isMap {
				return false
			}
		}
	}
	return sawTerm
}

// checkDetCall flags wall-clock and global-rand calls.
func checkDetCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if timeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock; deterministic code must derive time from the event engine", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s uses the global math/rand source; use an explicitly seeded *rand.Rand", fn.Name())
		}
	}
}

// calleeFunc resolves a call's target to a types.Func, when static.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
