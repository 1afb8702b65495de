package sim

import (
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// compressAttachment is the Program section for the built-in
// header-compression spec (ports defaulted by the topology).
func compressAttachment(slots int) Program {
	return Program{Kind: "compress", Slots: slots}
}

func testbedSmoke(sendGbps float64) testbedRun {
	return testbedRun{
		Testbed: Testbed{LinkBps: 10e9},
		Sections: Sections{
			Name:    "prog-smoke",
			Traffic: Traffic{SendBps: sendGbps * 1e9, Dist: trafficgen.Fixed(512)},
			Chain:   macSwapChain,
			Opts:    RunOptions{Seed: 11, WarmupNs: 2e6, MeasureNs: 8e6},
		},
	}
}

// TestTestbedCompressionProgram: the declarative header-compression
// policy, attached through Sections.Program with no Go program
// behind it, keeps goodput at parity below saturation while shrinking
// the NF-link traffic, and every context is reclaimed.
func TestTestbedCompressionProgram(t *testing.T) {
	base := testbedSmoke(4).run(t)
	cfg := testbedSmoke(4)
	cfg.Program = compressAttachment(4096)
	comp := cfg.run(t)

	if !base.Healthy || !comp.Healthy {
		t.Fatalf("unhealthy below saturation: base=%t comp=%t", base.Healthy, comp.Healthy)
	}
	if d := comp.GoodputGbps/base.GoodputGbps - 1; d > 0.01 || d < -0.01 {
		t.Errorf("goodput diverged: base=%.3f comp=%.3f", base.GoodputGbps, comp.GoodputGbps)
	}
	if comp.ToNFGbps >= base.ToNFGbps {
		t.Errorf("compression did not slim the NF link: %.3f >= %.3f", comp.ToNFGbps, base.ToNFGbps)
	}
	if len(comp.Programs) != 1 {
		t.Fatalf("programs = %d, want 1", len(comp.Programs))
	}
	pc := comp.Programs[0]
	if pc.Program != "header-compress" {
		t.Errorf("program name = %q", pc.Program)
	}
	if pc.Counters["compressions"] == 0 {
		t.Error("no compressions counted")
	}
	if pc.Counters["restores"] == 0 {
		t.Error("no restores counted")
	}
	if pc.Occupancy != 0 {
		t.Errorf("%d compression contexts leaked", pc.Occupancy)
	}
	if len(base.Programs) != 0 {
		t.Errorf("baseline reported %d programs", len(base.Programs))
	}
}

// TestTestbedParkPlusCompression: the built-in parking program and the
// declarative compression program share one pipe; the NF link carries
// fewer bytes than under either policy alone.
func TestTestbedParkPlusCompression(t *testing.T) {
	park := testbedSmoke(4)
	park.Parking = parking(true)
	parkRes := park.run(t)

	both := testbedSmoke(4)
	both.Parking = parking(true)
	both.Program = compressAttachment(4096)
	bothRes := both.run(t)

	if !parkRes.Healthy || !bothRes.Healthy {
		t.Fatalf("unhealthy below saturation: park=%t both=%t", parkRes.Healthy, bothRes.Healthy)
	}
	if bothRes.ToNFGbps >= parkRes.ToNFGbps {
		t.Errorf("adding compression did not slim the NF link further: %.3f >= %.3f",
			bothRes.ToNFGbps, parkRes.ToNFGbps)
	}
	if bothRes.Splits == 0 {
		t.Error("parking did not run alongside compression")
	}
	if len(bothRes.Programs) != 1 || bothRes.Programs[0].Counters["compressions"] == 0 {
		t.Fatalf("compression did not run alongside parking: %+v", bothRes.Programs)
	}
	if bothRes.Programs[0].Occupancy != 0 {
		t.Errorf("%d compression contexts leaked", bothRes.Programs[0].Occupancy)
	}
}

// TestLeafSpineCompression: fabric-wide compression at the ingress
// leaves keeps goodput at parity while slimming the fabric hops, and every
// context is reclaimed.
func TestLeafSpineCompression(t *testing.T) {
	base := leafSpineSmoke(ParkNone, 4).run(t)
	cfg := leafSpineSmoke(ParkNone, 4)
	cfg.Program.Kind = "compress"
	comp := cfg.run(t)
	assertFabricInvariants(t, comp.Switches)

	if !base.Healthy || !comp.Healthy {
		t.Fatalf("unhealthy below saturation: base=%t comp=%t", base.Healthy, comp.Healthy)
	}
	if d := comp.GoodputGbps/base.GoodputGbps - 1; d > 0.01 || d < -0.01 {
		t.Errorf("goodput diverged: base=%.3f comp=%.3f", base.GoodputGbps, comp.GoodputGbps)
	}
	var baseBits, compBits uint64
	for i := range base.Links {
		if strings.Contains(base.Links[i].Name, "->spine") {
			baseBits += base.Links[i].TxBits
			compBits += comp.Links[i].TxBits
		}
	}
	if compBits >= baseBits {
		t.Errorf("compression did not slim the fabric hops: %d >= %d", compBits, baseBits)
	}
	if len(comp.Programs) != 4 {
		t.Fatalf("programs = %d, want one per ingress leaf", len(comp.Programs))
	}
	for _, pc := range comp.Programs {
		if pc.Counters["compressions"] == 0 || pc.Counters["restores"] == 0 {
			t.Errorf("%s/%s: compressions=%d restores=%d, want nonzero",
				pc.Switch, pc.Program, pc.Counters["compressions"], pc.Counters["restores"])
		}
		if pc.Occupancy != 0 {
			t.Errorf("%s: %d compression contexts leaked", pc.Switch, pc.Occupancy)
		}
	}
}

// TestLeafSpineParkEdgePlusCompression: both policies together on the
// fabric — payload parks and headers compress at the ingress leaf — slim
// the fabric hops beyond parking alone and reclaim all state.
func TestLeafSpineParkEdgePlusCompression(t *testing.T) {
	park := leafSpineSmoke(ParkEdge, 4).run(t)
	cfg := leafSpineSmoke(ParkEdge, 4)
	cfg.Program.Kind = "compress"
	both := cfg.run(t)
	assertFabricInvariants(t, park.Switches)
	assertFabricInvariants(t, both.Switches)

	if !both.Healthy {
		t.Fatalf("unhealthy below saturation: %+v", both.UnintendedDropRate)
	}
	var parkBits, bothBits uint64
	for i := range park.Links {
		if strings.Contains(park.Links[i].Name, "->spine") {
			parkBits += park.Links[i].TxBits
			bothBits += both.Links[i].TxBits
		}
	}
	if bothBits >= parkBits {
		t.Errorf("adding compression did not slim the fabric hops further: %d >= %d", bothBits, parkBits)
	}
	for _, sw := range both.Switches {
		if sw.Name[0] == 'l' && (sw.Splits == 0 || sw.Occupancy != 0) {
			t.Errorf("%s: splits=%d occupancy=%d, want parking active and reclaimed", sw.Name, sw.Splits, sw.Occupancy)
		}
	}
	for _, pc := range both.Programs {
		if pc.Counters["compressions"] == 0 {
			t.Errorf("%s: compression idle alongside parking", pc.Switch)
		}
	}
}

// TestLeafSpineCompressRejectsEveryHop pins the unsupported combination.
func TestLeafSpineCompressRejectsEveryHop(t *testing.T) {
	cfg := leafSpineSmoke(ParkEveryHop, 4)
	cfg.Program.Kind = "compress"
	if _, err := runTopology(&cfg.LeafSpine, &cfg.Sections, cfg.Wiring); err == nil || !strings.Contains(err.Error(), "every-hop") {
		t.Errorf("err = %v, want every-hop rejection", err)
	}
}

// macSwapChain builds the default MAC-swap chain for program tests
// (compression restores L3/L4 headers from switch state, so the NF must
// not rewrite them).
func macSwapChain() *nf.Chain { return nf.NewChain(nf.MACSwap{}) }
