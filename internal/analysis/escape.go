package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// EscapeName labels the escape cross-check's findings. The zeroalloc
// analyzer rejects syntactic allocation sources inside //pp:zeroalloc
// functions but cannot see what the optimizer decides; this check asks
// the compiler.
const EscapeName = "escape"

// EscapeDoc documents the check for ppvet -help.
const EscapeDoc = `cross-check //pp:zeroalloc functions against the compiler's escape analysis

Rebuilds the analysed packages that hold //pp:zeroalloc functions with
go build -gcflags=-m (under a scratch GOCACHE: a warm cache prints no
diagnostics) and keys every "escapes to heap" / "moved to heap" line
inside a marked function by file and function, so line shifts do not
churn. A key missing from api/escape_allowlist.txt is a new heap
allocation on a hot path; an allowlist entry of an analysed package that
the compiler no longer reports is stale. ppvet -update rewrites the
analysed packages' entries for review.`

// AllowlistPath is the committed escape allowlist, relative to the module
// root: one "file:(recv).Func: message" key per line.
const AllowlistPath = "api/escape_allowlist.txt"

const allowlistHeader = `# Heap escapes the compiler reports inside //pp:zeroalloc functions.
# Regenerate with: go run ./cmd/ppvet -update
# An empty list is the goal; every entry here is a known, justified
# exception (see the function's //pp:alloc-ok waiver for the why).
`

// An escape is one keyed heap escape — a compiler diagnostic inside a
// marked function, or an allowlist entry — and where a finding about it
// points.
type escape struct {
	key  string // module-relative file:(recv).Func: message
	file string
	line int
}

// markedFunc is one //pp:zeroalloc function's line extent.
type markedFunc struct {
	name       string // receiver-qualified: (*Recorder).Emit
	start, end int
}

// Escapes runs the escape cross-check over pkgs, packages of the module
// at root, and returns its findings. With update it rewrites the
// allowlist instead: the analysed packages' entries become what the
// compiler reports now, every other entry is kept, and nothing is found.
func Escapes(root string, pkgs []*Package, update bool) ([]Finding, error) {
	marked := map[string][]markedFunc{} // by module-relative file
	analysed := map[string]bool{}       // module-relative package dirs
	var build []string
	for _, pkg := range pkgs {
		dir := relSlash(root, pkg.Dir)
		analysed[dir] = true
		has := false
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isZeroalloc(fd) {
					continue
				}
				start, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
				file := relSlash(root, start.Filename)
				marked[file] = append(marked[file], markedFunc{funcName(fd), start.Line, end.Line})
				has = true
			}
		}
		if has {
			build = append(build, "./"+dir)
		}
	}
	got, err := compilerEscapes(root, marked, build)
	if err != nil {
		return nil, err
	}
	list := filepath.Join(root, AllowlistPath)
	want, err := readAllowlist(list)
	if err != nil {
		return nil, err
	}
	if update {
		return nil, writeAllowlist(list, got, want, analysed)
	}
	return diffEscapes(got, want, analysed), nil
}

// isZeroalloc reports whether fd's doc comment carries the marker.
func isZeroalloc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if d, _, ok := parseDirective(c.Text); ok && d == DirZeroalloc {
			return true
		}
	}
	return false
}

// funcName renders a receiver-qualified display name: Emit becomes
// (*Recorder).Emit, plain functions keep their identifier.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return "(" + t.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func relSlash(root, p string) string {
	if rel, err := filepath.Rel(root, p); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(p)
}

// escapeLine matches one compiler diagnostic: file:line:col: message.
var escapeLine = regexp.MustCompile(`^([^\s:]+\.go):(\d+):\d+: (.*)$`)

// compilerEscapes builds the packages with -gcflags=-m from root and
// returns the heap escapes inside marked functions, sorted by key.
func compilerEscapes(root string, marked map[string][]markedFunc, build []string) ([]escape, error) {
	if len(build) == 0 {
		return nil, nil
	}
	gocache, err := os.MkdirTemp("", "ppvet-gocache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(gocache)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, build...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOCACHE="+gocache, "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("analysis: go build -gcflags=-m: %v\n%s", err, out)
	}
	seen := map[string]bool{}
	var got []escape
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil || !strings.Contains(m[3], "escapes to heap") && !strings.Contains(m[3], "moved to heap") {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		for _, mf := range marked[m[1]] {
			if n >= mf.start && n <= mf.end {
				if key := m[1] + ":" + mf.name + ": " + m[3]; !seen[key] {
					seen[key] = true
					got = append(got, escape{key, filepath.Join(root, m[1]), n})
				}
				break
			}
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].key < got[j].key })
	return got, nil
}

// readAllowlist returns the allowlist's entries; a missing file is empty.
func readAllowlist(list string) ([]escape, error) {
	data, err := os.ReadFile(list)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var want []escape
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, escape{line, list, i + 1})
		}
	}
	return want, nil
}

// entryPackage is the module-relative package directory an escape key's
// file belongs to.
func entryPackage(key string) string {
	file, _, _ := strings.Cut(key, ":")
	return path.Dir(file)
}

// diffEscapes reports every observed escape the allowlist lacks, at the
// compiler's position, and every allowlist entry the compiler no longer
// reports, at its allowlist line. An entry is stale only when its
// package was analysed: a run over part of the module judges only that
// part.
func diffEscapes(got, want []escape, analysed map[string]bool) []Finding {
	listed, observed := map[string]bool{}, map[string]bool{}
	for _, g := range got {
		observed[g.key] = true
	}
	var out []Finding
	for _, w := range want {
		listed[w.key] = true
		if !observed[w.key] && analysed[entryPackage(w.key)] {
			out = append(out, Finding{Analyzer: EscapeName, File: w.file, Line: w.line,
				Message: "stale allowlist entry, the compiler no longer reports it: " + w.key + "; run `go run ./cmd/ppvet -update` and review the diff"})
		}
	}
	for _, g := range got {
		if !listed[g.key] {
			out = append(out, Finding{Analyzer: EscapeName, File: g.file, Line: g.line,
				Message: "new heap escape in a //pp:zeroalloc function: " + g.key + "; remove it, or waive it and run `go run ./cmd/ppvet -update`"})
		}
	}
	return out
}

// writeAllowlist rewrites the allowlist: entries of packages outside the
// run are kept, the analysed packages' entries are replaced by got.
func writeAllowlist(list string, got, want []escape, analysed map[string]bool) error {
	var keys []string
	for _, w := range want {
		if !analysed[entryPackage(w.key)] {
			keys = append(keys, w.key)
		}
	}
	for _, g := range got {
		keys = append(keys, g.key)
	}
	sort.Strings(keys)
	return os.WriteFile(list, []byte(allowlistHeader+strings.Join(append(keys, ""), "\n")), 0o644)
}
