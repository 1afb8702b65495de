package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools analysistest: each package under
// testdata/src/<dir> is loaded through the real driver (so fixtures
// type-check against genuine export data), one analyzer runs over it,
// and `// want` comments with backquoted regexps declare the expected
// diagnostics on their line. Every finding must be wanted and every
// want must be found — including the suppression machinery's own
// findings (unused annotations, unknown directives), which is how the
// one-annotation-silences-one-diagnostic contract stays pinned.

type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]+)`")

func runFixture(t *testing.T, pkgdir string, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkgdir)
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("load fixture %s: %v", pkgdir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", pkgdir, len(pkgs))
	}
	findings, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on fixture %s: %v", a.Name, pkgdir, err)
	}

	// Collect wants from the fixture's comments, keyed by file:line.
	wants := make(map[string][]*want)
	pkg := pkgs[0]
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(c.Text[i:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		claimed := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected finding at %s: [%s] %s", key, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing finding at %s: want match for %q", key, w.re)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, "sim", Determinism) }
func TestZeroallocFixture(t *testing.T)   { runFixture(t, "hot", Zeroalloc) }
func TestReportJSONFixture(t *testing.T)  { runFixture(t, "rjson", ReportJSON) }
