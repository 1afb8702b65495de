package sim

import (
	"reflect"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// TestResolveDefaults pins every default a simulated topology fills into
// zero-valued sections — the effective values scenario.Run has always
// produced — and that a written value, per field, is left alone.
func TestResolveDefaults(t *testing.T) {
	// What every simulated topology resolves zero sections to, apart from
	// the traffic defaults each case states.
	common := func(dist trafficgen.SizeDist, flows int) Sections {
		return Sections{
			Parking: Parking{Slots: 8192, MaxExpiry: 1},
			Traffic: Traffic{Dist: dist, Flows: flows},
			Server:  DefaultServerModel(),
			Opts:    RunOptions{WarmupNs: 10e6, MeasureNs: 40e6},
		}
	}
	check := func(name string, gotTopo, wantTopo any, got, want Sections) {
		t.Helper()
		// A nil Chain stays nil, so Validate sees what the caller wrote;
		// the server builds the MAC swap from it.
		if c := got.ServerConfig(&Flow{}).Chain; got.Chain != nil || c.Name() != "MACSwap" {
			t.Errorf("%s: default chain is not the MAC swap", name)
		}
		if !reflect.DeepEqual(gotTopo, wantTopo) {
			t.Errorf("%s: topology resolved to %+v, want %+v", name, gotTopo, wantTopo)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sections resolved to\n %+v, want\n %+v", name, got, want)
		}
	}

	var tb Testbed
	var s Sections
	tb.Resolve(&s)
	check("testbed", tb, Testbed{LinkBps: 10e9},
		s, common(trafficgen.Datacenter{}, 1024))

	var ms MultiServer
	s = Sections{}
	ms.Resolve(&s)
	check("multiserver", ms, MultiServer{Servers: 8, LinkBps: 10e9},
		s, common(trafficgen.Fixed(384), 2048))

	var ls LeafSpine
	s = Sections{}
	ls.Resolve(&s)
	want := common(trafficgen.Datacenter{}, 1024)
	want.Program = Program{Slots: 8192, MaxExpiry: 1} // compress contexts follow parking
	check("leafspine", ls, LeafSpine{
		Leaves: 4, Spines: 2, LinkBps: 10e9,
		FailAtNs: 10e6 + 40e6/4, RerouteNs: 2e6,
	}, s, want)

	// Written values win, field by field.
	ls = LeafSpine{Leaves: 6, FailAtNs: 7}
	s = Sections{
		Parking: Parking{Slots: 100, MaxExpiry: 3},
		Program: Program{MaxExpiry: 9},
		Traffic: Traffic{FixedSize: 512, Flows: 7},
		Opts:    RunOptions{Quick: true, MeasureNs: 6},
	}
	ls.Resolve(&s)
	if ls.Leaves != 6 || ls.Spines != 2 || ls.FailAtNs != 7 {
		t.Errorf("written geometry moved: %+v", ls)
	}
	if s.Parking.Slots != 100 || s.Parking.MaxExpiry != 3 || s.Program.Slots != 100 || s.Program.MaxExpiry != 9 {
		t.Errorf("written parking/program moved: %+v %+v", s.Parking, s.Program)
	}
	if s.Traffic.Dist != trafficgen.Fixed(512) || s.Traffic.Flows != 7 {
		t.Errorf("written traffic moved: %+v", s.Traffic)
	}
	if s.Opts.WarmupNs != 2e6 || s.Opts.MeasureNs != 6 {
		t.Errorf("windows = %d/%d, want quick warmup 2e6 and the written 6", s.Opts.WarmupNs, s.Opts.MeasureNs)
	}
	if w, m := (RunOptions{Quick: true}).Windows(); w != 2e6 || m != 8e6 {
		t.Errorf("quick windows %d/%d, want 2e6/8e6", w, m)
	}
}

// TestRunnersRejectInsteadOfPanic: a description a topology cannot hold is
// an error naming the field, from every topology, before anything runs.
func TestRunnersRejectInsteadOfPanic(t *testing.T) {
	bad := Sections{Parking: Parking{Mode: ParkEdge, Slots: 100000}, Traffic: Traffic{SendBps: 1e9}}
	run := func(t topology) error {
		s := bad
		_, err := runTopology(t, &s, Wiring{})
		return err
	}
	errT, errM, errL := run(&Testbed{}), run(&MultiServer{}), run(&LeafSpine{})
	for kind, err := range map[string]error{"testbed": errT, "multiserver": errM, "leafspine": errL} {
		if err == nil || err.Error() != "parking.slots = 100000 outside [1, 65536]" {
			t.Errorf("%s: err = %v, want the parking.slots range error", kind, err)
		}
	}
	// In range, but two 65536-slot tables do not fit one pipe's stages:
	// the placement failure surfaces as an error too.
	fits := Sections{Parking: Parking{Mode: ParkEdge, Slots: 65536}, Traffic: Traffic{SendBps: 1e9}, Opts: RunOptions{WarmupNs: 1e5, MeasureNs: 1e5}}
	if _, err := runTopology(&MultiServer{Servers: 2}, &fits, Wiring{}); err == nil || !strings.Contains(err.Error(), "SRAM overflow") {
		t.Errorf("multiserver 2x65536: err = %v, want the SRAM overflow as an error", err)
	}
}

// TestRulesHaveOneOwner: every rule naming a section a topology does not
// run lives in that topology's Validate, so a direct call rejects
// the description with the exact text scenario.Run reports after its
// "scenario: <kind>: " prefix (internal/scenario's validation tables check
// the same rules through Run). A multi-server run with a controller or a
// table program used to run without either.
func TestRulesHaveOneOwner(t *testing.T) {
	chain := func() *nf.Chain { return nf.NewChain(nf.MACSwap{}) }
	replay := func() trafficgen.Source { return nil }
	const (
		trio       = "Recirculate/BoundaryOffset/ExplicitDrop unsupported"
		noPrograms = "table programs unsupported (use Testbed or LeafSpine)"
	)
	for _, tc := range []struct {
		topo string
		set  func(*Sections)
		want string
	}{
		{"testbed", func(s *Sections) { s.Control.ECMP = true }, "ECMP needs a multipath topology (use LeafSpine)"},
		{"multiserver", func(s *Sections) { s.Chain = chain }, "custom Chain unsupported (the §6.2.3 deployment pins the MAC-swap chain)"},
		{"multiserver", func(s *Sections) { s.Traffic.Source = replay }, "Traffic.Source unsupported"},
		{"multiserver", func(s *Sections) { s.Parking.Recirculate = true }, trio},
		{"multiserver", func(s *Sections) { s.Parking.BoundaryOffset = 32 }, trio},
		{"multiserver", func(s *Sections) { s.Parking.ExplicitDrop = true }, trio},
		{"multiserver", func(s *Sections) { s.Parking.Mode = ParkEveryHop }, "ParkEveryHop needs a multi-switch topology"},
		{"multiserver", func(s *Sections) { s.Control = ctrl.Config{Adaptive: true} }, "control plane unsupported (use Testbed or LeafSpine)"},
		{"multiserver", func(s *Sections) { s.Program.Kind = "compress" }, noPrograms},
		{"multiserver", func(s *Sections) { s.Program.Spec = &prog.Spec{} }, noPrograms},
		{"leafspine", func(s *Sections) { s.Chain = chain }, "custom Chain unsupported (fabric NFs pin the MAC-swap chain)"},
		{"leafspine", func(s *Sections) { s.Traffic.Source = replay }, "Traffic.Source unsupported"},
		{"leafspine", func(s *Sections) { s.Parking.Recirculate = true }, trio},
		{"leafspine", func(s *Sections) { s.Parking.ExplicitDrop = true }, trio},
	} {
		s := Sections{Parking: Parking{Mode: ParkEdge}, Traffic: Traffic{SendBps: 1e9}, Opts: RunOptions{WarmupNs: 1e5, MeasureNs: 1e5}}
		tc.set(&s)
		var err error
		switch tc.topo {
		case "testbed":
			_, err = runTopology(&Testbed{}, &s, Wiring{})
		case "multiserver":
			_, err = runTopology(&MultiServer{Servers: 2}, &s, Wiring{})
		case "leafspine":
			_, err = runTopology(&LeafSpine{}, &s, Wiring{})
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.topo, err, tc.want)
		}
	}
}

// TestServerConfigRewritesUnlessTheChainSwaps: the framework rewrites L2
// toward the next hop unless the chain's last stage swaps MACs, whatever
// the chain is called; the boundary and explicit drops come from the
// Parking section, and explicit drops only behind a parking program.
func TestServerConfigRewritesUnlessTheChainSwaps(t *testing.T) {
	fw := nf.NewFirewall(nil)
	for _, c := range []struct {
		chain   *nf.Chain
		rewrite bool
	}{
		{nf.NewChain(fw, nf.MACSwap{}), false},
		{nf.NewChain(nf.NewSynthetic("S", 10)), false},
		{nf.NewChain(nf.MACSwap{}, fw), true},
		{nf.NewChain(fw, nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1})), true},
		{nf.NewChain(), true},
	} {
		s := Sections{Chain: func() *nf.Chain { return c.chain }}
		if got := s.ServerConfig(&Flow{}).RewriteMACs; got != c.rewrite {
			t.Errorf("%s: RewriteMACs = %t, want %t", c.chain.Name(), got, c.rewrite)
		}
	}
	s := Sections{Parking: Parking{Mode: ParkEdge, BoundaryOffset: 32, ExplicitDrop: true}}
	if cfg := s.ServerConfig(&Flow{}); !cfg.ExplicitDrop || cfg.Boundary != 32 {
		t.Errorf("parking server: explicit drop %t, boundary %d; want true, 32", cfg.ExplicitDrop, cfg.Boundary)
	}
	s.Parking.Mode = ParkNone
	if s.ServerConfig(&Flow{}).ExplicitDrop {
		t.Error("explicit drops on without a parking program")
	}
}
