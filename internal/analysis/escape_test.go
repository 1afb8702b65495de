package analysis

import (
	"strings"
	"testing"
)

// TestEscapeAllowlistDiff pins the allowlist diff: an observed escape the
// list lacks is new (reported at the compiler's position), a listed entry
// the compiler no longer reports is stale (reported at its list line), and
// an entry whose package was not analysed is left alone.
func TestEscapeAllowlistDiff(t *testing.T) {
	const (
		kept  = "internal/core/burst.go:(*FrameBurst).Add: in escapes to heap"
		added = "internal/core/burst.go:(*FrameBurst).Run: &x escapes to heap"
		stale = "internal/core/fwd.go:(*fwdTable).find: t escapes to heap"
		other = "internal/packet/packet.go:ParseAtInto: &UDP{} escapes to heap"
	)
	got := []escape{{kept, "/m/internal/core/burst.go", 80}, {added, "/m/internal/core/burst.go", 120}}
	want := []escape{{kept, "allowlist", 5}, {stale, "allowlist", 6}, {other, "allowlist", 7}}
	findings := diffEscapes(got, want, map[string]bool{"internal/core": true})
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want one stale and one new", findings)
	}
	for i, w := range []struct {
		file string
		line int
		msg  string
	}{
		{"allowlist", 6, "stale allowlist entry, the compiler no longer reports it: " + stale},
		{"/m/internal/core/burst.go", 120, "new heap escape in a //pp:zeroalloc function: " + added},
	} {
		f := findings[i]
		if f.Analyzer != EscapeName || f.File != w.file || f.Line != w.line || !strings.HasPrefix(f.Message, w.msg) {
			t.Errorf("finding %d = %v, want %s:%d %q", i, f, w.file, w.line, w.msg)
		}
	}
}
