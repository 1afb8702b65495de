package rmt

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/stats"
)

// The honesty test: what a descriptor says its body reads, writes and
// indexes is what prog's checks and the linter believe, so every body is
// run on poisoned PHVs and held to its declaration.

const (
	honestCells = 16
	honestSlots = 16
	honestTagTI = 37 // reduces to 5 under honestSlots
	honestClock = 9
)

var honestScope = Scope{Blocks: 4, BlockBytes: 8, Runtime: map[string]uint32{"max_expiry": 2}}

// minimalArgs binds every required key of d and nothing else: unbounded
// parameters take honestSlots, bounded ones their minimum, parser-tied ones
// the scope's value.
func minimalArgs(d *Action) ActionArgs {
	a := ActionArgs{Params: map[string]int64{}, Counters: map[string]string{}, Reasons: map[string]string{}}
	for _, p := range d.Ints {
		if p.Optional {
			continue
		}
		v := p.Min
		switch p.Parser {
		case Free:
			if p.Max == 0 {
				v = honestSlots
			}
		case BlockIndex:
			v = 1
		case SameAsParser:
			v = honestScope.geometry(p.Name)
		}
		a.Params[p.Name] = v
	}
	for _, role := range d.Counters {
		a.Counters[role] = "ctr:" + role
	}
	for _, role := range d.Reasons {
		a.Reasons[role] = "why:" + role
	}
	return a
}

// outcome is everything an action body can touch: the metadata words, the
// rest of the PHV (its Meta zeroed, so it compares apart), the register and
// the counters.
type outcome struct {
	meta     [MetaWords]uint32
	phv      *PHV
	cells    [][]byte
	counters map[string]uint64
}

// runHonest builds d's body with minimal arguments and runs it once on a
// PHV carrying every header, the scope's park region and the given
// metadata, over a register whose cells are all free or all held by the
// PHV's tag.
func runHonest(t *testing.T, d *Action, meta [MetaWords]uint32, held bool) (*Binding, outcome) {
	t.Helper()
	b, err := d.Bind(minimalArgs(d), honestScope)
	if err != nil {
		t.Fatalf("%s: minimal arguments do not bind: %v", d.Name, err)
	}
	counters := map[string]*stats.Counter{}
	for _, name := range b.CounterNames() {
		counters[name] = new(stats.Counter)
	}
	expiry := honestScope.Runtime["max_expiry"]
	body, move, err := b.Build(cellEnv{"max_expiry": &expiry}, counters)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}

	p := NewPipeline("honest")
	mat := &MAT{Name: d.Name, Rules: []Rule{{Name: d.Name, Action: body, Move: move}}}
	if d.Reg.Index != NoRegister {
		mat.Reg = p.NewRegister(0, "r", 16, honestCells)
		for i := 0; i < honestCells; i++ {
			cell := mat.Reg.cell(i)
			for j := range cell {
				cell[j] = byte(0xA0 + i + j)
			}
			if held {
				setExpClk(cell, 2, honestClock)
			} else {
				setExpClk(cell, 0, 0)
			}
		}
	}
	p.AddMAT(0, mat)

	pkt := testPkt(t, 600)
	tag := packet.Tag{TableIndex: honestTagTI, Clock: honestClock}.Seal()
	pkt.SetPP(packet.PPHeader{Enabled: true, Tag: tag})
	pkt.SetCR(packet.CRHeader{Proto: packet.IPProtoUDP, Tag: tag})
	phv := &PHV{Pkt: pkt, Meta: meta}
	pkt.IP.Marshal(phv.HdrScratch[:packet.IPv4HeaderLen])
	pkt.UDP.Marshal(phv.HdrScratch[packet.IPv4HeaderLen:])
	phv.Park = pkt.Payload[:honestScope.Blocks*honestScope.BlockBytes]
	p.Process(phv)

	out := outcome{meta: phv.Meta, phv: phv, counters: map[string]uint64{}}
	phv.Meta = [MetaWords]uint32{}
	for name, c := range counters {
		out.counters[name] = c.Value()
	}
	if mat.Reg != nil {
		for i := 0; i < honestCells; i++ {
			out.cells = append(out.cells, mat.Reg.Snapshot(i))
		}
	}
	return b, out
}

// sameOutcome compares two outcomes, leaving metadata word skip (-1: none)
// out.
func sameOutcome(a, b outcome, skip int) bool {
	if skip >= 0 {
		a.meta[skip], b.meta[skip] = 0, 0
	}
	return a.meta == b.meta && reflect.DeepEqual(a.phv, b.phv) &&
		reflect.DeepEqual(a.cells, b.cells) && reflect.DeepEqual(a.counters, b.counters)
}

// TestActionNamesUnique: every descriptor is looked up under its
// own name, and no two share one — the name is what a spec compiles against.
func TestActionNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range builtinActions {
		if seen[d.Name] {
			t.Errorf("action %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if got, err := LookupAction(d.Name); err != nil || got != d {
			t.Errorf("LookupAction(%q) = %p, %v; want its descriptor", d.Name, got, err)
		}
	}
	if names := ActionNames(); len(names) != len(builtinActions) {
		t.Errorf("the vocabulary lists %d actions, %d are declared", len(names), len(builtinActions))
	}
}

func TestDescriptorsHonest(t *testing.T) {
	var poison [MetaWords]uint32
	for i := range poison {
		poison[i] = uint32(2 + i) // distinct, nonzero, and a valid cell index
	}
	for _, name := range ActionNames() {
		d, _ := LookupAction(name)
		for _, held := range []bool{false, true} {
			b, base := runHonest(t, d, poison, held)

			var declared []int
			for _, w := range d.Writes {
				word, _ := b.WriteWord(w)
				declared = append(declared, word)
			}
			for w := range poison {
				if base.meta[w] != poison[w] && !slices.Contains(declared, w) {
					t.Errorf("%s (held=%t): writes metadata word %d, which it does not declare", name, held, w)
				}
			}

			for w := range poison {
				if slices.Contains(d.Reads, w) {
					continue
				}
				flipped := poison
				flipped[w] ^= 8
				_, got := runHonest(t, d, flipped, held)
				skip := -1
				if base.meta[w] == poison[w] { // untouched: the flip itself shows
					skip = w
				}
				if !sameOutcome(base, got, skip) {
					t.Errorf("%s (held=%t): outcome depends on metadata word %d, which it does not declare it reads", name, held, w)
				}
			}

			want := -1
			switch d.Reg.Index {
			case IndexZero:
				want = 0
			case IndexMeta:
				want = int(poison[d.Reg.Word])
			case IndexTag:
				want = honestTagTI % honestSlots
			}
			before := untouchedCells(t, d, held)
			for i := range base.cells {
				if i != want && !slices.Equal(base.cells[i], before[i]) {
					t.Errorf("%s (held=%t): touched register cell %d, declared index is %d", name, held, i, want)
				}
			}
		}
	}
}

// untouchedCells returns the register image runHonest starts from.
func untouchedCells(t *testing.T, d *Action, held bool) [][]byte {
	idle := *d
	idle.Move, idle.Build = NoMove, func(Args) func(*Ctx) { return func(*Ctx) {} }
	_, out := runHonest(t, &idle, [MetaWords]uint32{}, held)
	return out.cells
}

// vocabularyDoc renders the README's vocabulary tables from the
// descriptors and the condition field table.
func vocabularyDoc() string {
	var sb strings.Builder
	word := func(w int) string { return Field{kind: condMeta, word: uint8(w)}.String() }
	list := func(items []string) string {
		if len(items) == 0 {
			return "—"
		}
		return strings.Join(items, ", ")
	}
	sb.WriteString("| action | integer params | counters | reasons | runtime | meta read → written | register |\n|---|---|---|---|---|---|---|\n")
	for _, name := range ActionNames() {
		d, _ := LookupAction(name)
		var ints, reads, writes []string
		for _, p := range d.Ints {
			s := fmt.Sprintf("`%s` %s", p.Name, [...]string{"∈ " + p.rangeText(), "∈ [0, parser blocks)", "= parser " + p.Name}[p.Parser])
			if p.Optional {
				s += fmt.Sprintf(" (default %d)", p.Default)
			}
			ints = append(ints, s)
		}
		for _, w := range d.Reads {
			reads = append(reads, word(w))
		}
		for _, w := range d.Writes {
			s := word(w.Word)
			if w.Via != "" {
				s = "word `" + w.Via + "`"
			}
			if w.Below != "" {
				s += " < `" + w.Below + "`"
			}
			writes = append(writes, s)
		}
		reg := "—"
		if d.Reg.Index != NoRegister {
			bytes := fmt.Sprint(d.Reg.Bytes)
			if d.Reg.BytesOf != "" {
				bytes = "`" + d.Reg.BytesOf + "`"
			}
			reg = fmt.Sprintf("%s B at %s", bytes, [...]string{"", "cell 0", word(d.Reg.Word), "tag index mod `slots`"}[d.Reg.Index])
		}
		if d.Needs != NoHeader {
			reg += fmt.Sprintf("; match must prove the %s header", [...]string{"", "PP", "CR"}[d.Needs])
		}
		quote := func(items []string) []string {
			out := make([]string, len(items))
			for i, s := range items {
				out[i] = "`" + s + "`"
			}
			return out
		}
		fmt.Fprintf(&sb, "| `%s` — %s | %s | %s | %s | %s | %s → %s | %s |\n", d.Name, d.Doc,
			list(ints), list(quote(d.Counters)), list(quote(d.Reasons)), list(quote(d.Runtime)), list(reads), list(writes), reg)
	}
	sb.WriteString("\n| condition field | loads |\n|---|---|\n")
	for _, f := range condFields {
		fmt.Fprintf(&sb, "| `%s` | %s |\n", f.name, f.doc)
	}
	return sb.String()
}

// TestVocabularyDoc pins the README's vocabulary tables to the descriptors.
func TestVocabularyDoc(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- vocabulary:begin (rendered by internal/rmt TestVocabularyDoc) -->\n", "<!-- vocabulary:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if want := vocabularyDoc(); !ok || !ok2 || got != want {
		t.Errorf("README.md's vocabulary tables drifted from the descriptors; between the vocabulary markers it should read:\n%s", want)
	}
}
