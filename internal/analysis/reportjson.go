package analysis

import (
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// ReportJSON checks the serialized report surface: every exported field
// of every struct reachable from a JSON root must carry a complete
// snake_case `json:"..."` tag. The roots are the structs that already
// participate in serialization — any exported struct with at least one
// json-tagged exported field, plus anything named Report — so adding a
// field to scenario.Report (or any struct it embeds, from any package)
// without a tag is a lint failure, not a silently camelCased key that
// breaks the golden files and every downstream consumer of report.json.
var ReportJSON = &Analyzer{
	Name:      "reportjson",
	Directive: DirJSONOK,
	Doc: `check the JSON report surface for complete snake_case tags

Walks every struct reachable from the package's JSON roots (structs
with json-tagged fields, and types named Report). Exported fields must
have a json tag; tag names must be snake_case; json:"-" excludes a
field deliberately. Structs reached in other packages of this module
that have exported fields but no tags at all are reported at the
referencing field. Types with their own MarshalJSON/MarshalText are
trusted to serialize themselves.`,
	Run: runReportJSON,
}

func runReportJSON(pass *Pass) error {
	c := &jsonChecker{
		pass:    pass,
		visited: make(map[*types.Named]bool),
	}
	c.buildMarshalerIfaces()

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !tn.Exported() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if tn.Name() == "Report" || hasJSONTag(st) {
			c.visit(named, tn.Pos())
		}
	}
	return nil
}

type jsonChecker struct {
	pass      *Pass
	visited   map[*types.Named]bool
	marshaler *types.Interface // json.Marshaler
	textM     *types.Interface // encoding.TextMarshaler
}

// buildMarshalerIfaces constructs json.Marshaler and
// encoding.TextMarshaler structurally, so the check does not force
// either package into the import graph.
func (c *jsonChecker) buildMarshalerIfaces() {
	errType := types.Universe.Lookup("error").Type()
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "", types.NewSlice(types.Typ[types.Byte])),
		types.NewVar(token.NoPos, nil, "", errType),
	)
	sig := types.NewSignatureType(nil, nil, nil, nil, results, false)
	mkIface := func(method string) *types.Interface {
		iface := types.NewInterfaceType([]*types.Func{
			types.NewFunc(token.NoPos, nil, method, sig),
		}, nil)
		iface.Complete()
		return iface
	}
	c.marshaler = mkIface("MarshalJSON")
	c.textM = mkIface("MarshalText")
}

// selfMarshaling reports whether t serializes itself.
func (c *jsonChecker) selfMarshaling(t types.Type) bool {
	p := types.NewPointer(t)
	return types.Implements(t, c.marshaler) || types.Implements(p, c.marshaler) ||
		types.Implements(t, c.textM) || types.Implements(p, c.textM)
}

// inModule reports whether a package belongs to the analyzed module,
// i.e. its declarations are ours to fix.
func (c *jsonChecker) inModule(pkg *types.Package) bool {
	if pkg == nil || c.pass.Module == "" {
		return false
	}
	path := pkg.Path()
	return path == c.pass.Module || strings.HasPrefix(path, c.pass.Module+"/")
}

// visit checks one named struct and recurses through its fields. from
// is the position the type was reached at, used to anchor findings
// about structs declared in other packages (whose own positions point
// into files this pass is not analyzing).
func (c *jsonChecker) visit(named *types.Named, from token.Pos) {
	if c.visited[named] {
		return
	}
	c.visited[named] = true
	if c.selfMarshaling(named) || !c.inModule(named.Obj().Pkg()) {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	local := named.Obj().Pkg() == c.pass.Pkg

	if !local {
		// A struct from a sibling package that participates in JSON but
		// has no tags at all is invisible to its own package's pass (no
		// tagged field makes it a root there); report it here, at the
		// reference that pulls it into the surface. Partially tagged
		// structs are that package's own finding.
		if exported := countExportedFields(st); exported > 0 && !hasJSONTag(st) {
			c.pass.Reportf(from, "%s is serialized into the JSON report surface but none of its %d exported fields have json tags", named.Obj().Pkg().Name()+"."+named.Obj().Name(), exported)
		}
	}

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if f.Exported() && local {
			switch {
			case tag == "" && embedsStruct(f): // flattened; checked where declared
			case tag == "":
				c.pass.Reportf(f.Pos(), "field %s.%s has no json tag; the report surface is snake_case (add `json:\"%s\"` or exclude with `json:\"-\"`)", named.Obj().Name(), f.Name(), snakeCase(f.Name()))
			case name == "":
				c.pass.Reportf(f.Pos(), "field %s.%s json tag %q has no name; the key defaults to the Go field name", named.Obj().Name(), f.Name(), tag)
			case name != "-" && !isSnakeCase(name):
				c.pass.Reportf(f.Pos(), "field %s.%s json key %q is not snake_case", named.Obj().Name(), f.Name(), name)
			}
		}
		if name == "-" && tag != "-," {
			continue // excluded from serialization: nothing reachable
		}
		if !f.Exported() && !f.Embedded() {
			continue // unexported fields never serialize
		}
		pos := from
		if local {
			pos = f.Pos()
		}
		c.visitType(f.Type(), pos)
	}
}

// visitType unwraps containers and recurses into named structs.
func (c *jsonChecker) visitType(t types.Type, from token.Pos) {
	switch t := t.(type) {
	case *types.Pointer:
		c.visitType(t.Elem(), from)
	case *types.Slice:
		c.visitType(t.Elem(), from)
	case *types.Array:
		c.visitType(t.Elem(), from)
	case *types.Map:
		c.visitType(t.Elem(), from)
	case *types.Named:
		if _, isStruct := t.Underlying().(*types.Struct); isStruct {
			c.visit(t, from)
		}
	}
}

// embedsStruct reports whether f embeds a struct (or a pointer to one),
// whose keys encoding/json flattens into the parent's when f is untagged.
func embedsStruct(f *types.Var) bool {
	t := f.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Struct)
	return f.Embedded() && ok
}

// hasJSONTag reports whether any exported field carries a json tag.
func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() && reflect.StructTag(st.Tag(i)).Get("json") != "" {
			return true
		}
	}
	return false
}

func countExportedFields(st *types.Struct) int {
	n := 0
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() {
			n++
		}
	}
	return n
}

// isSnakeCase reports whether a json key is lower_snake_case.
func isSnakeCase(s string) bool {
	if s == "" {
		return false
	}
	for _, part := range strings.Split(s, "_") {
		if part == "" {
			return false
		}
		for _, r := range part {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
				return false
			}
		}
	}
	return true
}

// snakeCase converts a Go field name to the snake_case key the tag
// should declare, for the fix suggestion in the diagnostic.
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			if i > 0 && (name[i-1] < 'A' || name[i-1] > 'Z') {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
