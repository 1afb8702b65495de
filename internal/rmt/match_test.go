package rmt

import (
	"slices"
	"strings"
	"testing"
)

// traceRule is a rule that appends its name to a log when it fires; run,
// when set, then edits the PHV.
type traceRule struct {
	name  string
	conds []Cond
	run   func(*PHV)
}

// cellEnv holds bare runtime-parameter cells.
type cellEnv = map[string]*uint32

// tracePipe builds a pipe of traceRules, one MAT per stage in the order
// given.
func tracePipe(t *testing.T, env cellEnv, log *[]string, mats ...[]traceRule) *Pipeline {
	t.Helper()
	p := NewPipeline("trace")
	for stage, rules := range mats {
		m := &MAT{Name: "m"}
		for _, r := range rules {
			ops, err := CompileConds(nil, r.conds, env)
			if err != nil {
				t.Fatalf("rule %s: %v", r.name, err)
			}
			m.Rules = append(m.Rules, Rule{Name: r.name, Conds: ops, Action: func(c *Ctx) {
				*log = append(*log, r.name)
				if r.run != nil {
					r.run(c.PHV)
				}
			}})
		}
		p.AddMAT(stage, m)
	}
	return p
}

func runTrace(t *testing.T, p *Pipeline, log *[]string, phv *PHV) string {
	t.Helper()
	*log = (*log)[:0]
	phv.Pkt = testPkt(t, 64)
	p.Process(phv)
	return strings.Join(*log, ",")
}

func TestSpecialiserPortClasses(t *testing.T) {
	var log []string
	p := tracePipe(t, nil, &log,
		[]traceRule{{name: "eq1", conds: []Cond{{Field: fld("in_port"), Value: 1}}}},
		[]traceRule{{name: "ne1", conds: []Cond{{Field: fld("in_port"), Ne: true, Value: 1}}}},
		[]traceRule{{name: "any"}},
		[]traceRule{{name: "pass1", conds: []Cond{{Field: fld("pass"), Value: 1}, {Field: fld("in_port"), Value: 4}}}},
	)
	for _, tc := range []struct {
		port PortID
		pass int
		want string
	}{
		{1, 0, "eq1,any"},
		{4, 0, "ne1,any"},       // named by another rule: its own class
		{9, 0, "ne1,any"},       // named by no rule: the "other" class
		{4, 1, "ne1,any,pass1"}, // pass decided per program too
		{1, 1, "eq1,any"},
	} {
		if got := runTrace(t, p, &log, &PHV{InPort: tc.port, Pass: tc.pass}); got != tc.want {
			t.Errorf("port %d pass %d fired %q, want %q", tc.port, tc.pass, got, tc.want)
		}
	}
}

// TestUnnamedPortRunsEmptyProgram pins the hardware analogy: when every rule
// names a port, a packet on any other port matches nothing and evaluates
// nothing.
func TestUnnamedPortRunsEmptyProgram(t *testing.T) {
	var log []string
	p := tracePipe(t, nil, &log,
		[]traceRule{{name: "a", conds: []Cond{{Field: fld("in_port"), Value: 1}, {Field: fld("drop"), Value: 0}}}},
		[]traceRule{{name: "b", conds: []Cond{{Field: fld("in_port"), Value: 2}}}},
	)
	p.Compile()
	if len(p.ports) != 2 || p.ports[0] != 1 || p.ports[1] != 2 {
		t.Fatalf("ports = %v, want [1 2]", p.ports)
	}
	for pass := 0; pass < maxPasses; pass++ {
		if other := p.progs[pass*3]; len(other) != 0 {
			t.Errorf("pass %d: other-port program has %d steps, want 0", pass, len(other))
		}
	}
	if steps := p.progs[1]; len(steps) != 1 || !steps[0].guard.equal(&guard{mask: flagDrop}) {
		t.Errorf("port 1 program = %+v, want one step with in_port elided and drop == 0 packed", steps)
	}
}

func TestAddMATAfterProcessRecompiles(t *testing.T) {
	var log []string
	p := tracePipe(t, nil, &log, nil, nil, []traceRule{{name: "s2"}})
	if got := runTrace(t, p, &log, &PHV{}); got != "s2" {
		t.Fatalf("fired %q, want s2", got)
	}
	late := &MAT{Name: "late", Rules: []Rule{{Action: func(*Ctx) { log = append(log, "s0") }}}}
	p.AddMAT(0, late)
	if got := runTrace(t, p, &log, &PHV{}); got != "s0,s2" {
		t.Errorf("after AddMAT fired %q, want s0,s2", got)
	}
	// Hit counts live on the rules, so the recompile keeps s2's first fire.
	if s0, s2 := late.Rules[0].Hits(), p.mats[len(p.mats)-1].Rules[0].Hits(); s0 != 1 || s2 != 2 {
		t.Errorf("after the recompile s0 hit %d times and s2 %d, want 1 and 2", s0, s2)
	}
}

// TestFailSkipRespectsFirstMatch crosses a fail-skip run (a.2 and b.1 share
// a guard) with a MAT boundary: an earlier hit in a suppresses a.2 without
// evaluating it, and b.1 still sees what a.1's action wrote.
func TestFailSkipRespectsFirstMatch(t *testing.T) {
	var log []string
	g1 := []Cond{{Field: fld("meta.0"), Value: 1}}
	g2 := []Cond{{Field: fld("meta.1"), Value: 1}}
	setMeta1 := false
	p := tracePipe(t, nil, &log,
		[]traceRule{
			{name: "a.1", conds: g1, run: func(phv *PHV) {
				if setMeta1 {
					phv.SetMeta(1, 1)
				}
			}},
			{name: "a.2", conds: g2},
		},
		[]traceRule{{name: "b.1", conds: g2}},
		[]traceRule{{name: "c.1"}},
	)
	for _, tc := range []struct {
		m0, m1 uint32
		write  bool
		want   string
	}{
		{1, 1, false, "a.1,b.1,c.1"},
		{0, 1, false, "a.2,b.1,c.1"},
		{1, 0, false, "a.1,c.1"},
		{0, 0, false, "c.1"},
		{1, 0, true, "a.1,b.1,c.1"},
	} {
		setMeta1 = tc.write
		phv := &PHV{}
		phv.Meta[0], phv.Meta[1] = tc.m0, tc.m1
		if got := runTrace(t, p, &log, phv); got != tc.want {
			t.Errorf("meta0=%d meta1=%d write=%v fired %q, want %q", tc.m0, tc.m1, tc.write, got, tc.want)
		}
	}
}

// TestFailSkipStopsAtDifferentGuard: x and z share a guard but y, between
// them, does not — a miss on x must neither skip y nor z, whose guard y's
// action may have just made true.
func TestFailSkipStopsAtDifferentGuard(t *testing.T) {
	var log []string
	g := []Cond{{Field: fld("meta.0"), Value: 1}}
	p := tracePipe(t, nil, &log,
		[]traceRule{{name: "x", conds: g}},
		[]traceRule{{name: "y", conds: []Cond{{Field: fld("meta.1"), Value: 1}}, run: func(phv *PHV) { phv.SetMeta(0, 1) }}},
		[]traceRule{{name: "z", conds: g}},
		[]traceRule{{name: "w", conds: g}},
	)
	p.Compile()
	if steps := p.progs[0]; steps[0].onMiss != 1 || steps[2].onMiss != 4 {
		t.Errorf("onMiss = %d,%d, want 1 (guard differs) and 4 (z,w share one)", steps[0].onMiss, steps[2].onMiss)
	}
	phv := &PHV{}
	phv.Meta[1] = 1
	if got := runTrace(t, p, &log, phv); got != "y,z,w" {
		t.Errorf("fired %q, want y,z,w", got)
	}
	if got := runTrace(t, p, &log, &PHV{}); got != "" {
		t.Errorf("fired %q, want nothing", got)
	}
}

// TestRuntimeParamLoadedPerPacket: a param.* condition is never folded into
// the program; a control-plane write between two packets changes the match.
func TestRuntimeParamLoadedPerPacket(t *testing.T) {
	var log []string
	gate := uint32(0)
	p := tracePipe(t, cellEnv{"gate": &gate}, &log,
		[]traceRule{{name: "open", conds: []Cond{{Field: fld("param.gate"), Value: 1}}}},
	)
	if got := runTrace(t, p, &log, &PHV{}); got != "" {
		t.Errorf("gate closed: fired %q", got)
	}
	gate = 1
	if got := runTrace(t, p, &log, &PHV{}); got != "open" {
		t.Errorf("gate open: fired %q, want open", got)
	}
	if _, err := CompileConds(nil, []Cond{{Field: fld("param.gate")}}, nil); err == nil {
		t.Error("param condition compiled without its cell")
	}
}

func TestProcessRejectsUncompiledPass(t *testing.T) {
	p := NewPipeline("looper")
	for _, pass := range []int{maxPasses, -1} {
		mustPanic(t, `pipe "looper" asked to run pass`, func() {
			p.Process(&PHV{Pkt: testPkt(t, 64), Pass: pass})
		})
	}
}

// TestClassTableMatchesPortSearch holds the port → class table Compile
// builds to the search it replaced: for every PortID (core.NumPorts of them
// and beyond) and pass, program picks the program a search of the named
// ports picks, before and after a rule naming a new port recompiles the
// pipe. Every program holds the unconditional rule, so no two programs
// share a first step.
func TestClassTableMatchesPortSearch(t *testing.T) {
	var log []string
	p := tracePipe(t, nil, &log,
		[]traceRule{{name: "p7", conds: []Cond{{Field: fld("in_port"), Value: 7}}}, {name: "p2", conds: []Cond{{Field: fld("in_port"), Value: 2}}}},
		[]traceRule{{name: "any"}},
	)
	check := func(when string, named int) {
		p.Compile()
		if len(p.ports) != named {
			t.Fatalf("%s: %d named ports %v, want %d", when, len(p.ports), p.ports, named)
		}
		for pass := 0; pass < maxPasses; pass++ {
			for port := 0; port < 1<<16; port++ {
				want := p.progs[pass*(len(p.ports)+1)+slices.Index(p.ports, PortID(port))+1]
				if got := p.program(pass, PortID(port)); len(got) == 0 || &got[0] != &want[0] || len(got) != len(want) {
					t.Fatalf("%s: pass %d port %d: the class table picks a %d-step program, the search a %d-step one", when, pass, port, len(got), len(want))
				}
			}
		}
	}
	check("first compile", 2)
	runTrace(t, p, &log, &PHV{InPort: 7})
	p.AddMAT(3, &MAT{Name: "late", Rules: []Rule{{Name: "p40", Conds: conds(t, Cond{Field: fld("in_port"), Value: 40}), Action: func(*Ctx) {}}}})
	check("after a rule naming port 40", 3)
}
