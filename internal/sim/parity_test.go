package sim

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// The fabric refactor rebuilt the testbed and multi-server runners as
// presets over sim.Fabric (today both are graphs run by Run). These goldens were recorded from the pre-refactor
// implementations (same configurations, same seeds) and pin every
// pre-existing Result field: the presets must reproduce the old wiring's
// event timeline exactly, not just approximately.

func goldenCfg(pp bool, sendGbps float64, seed int64) testbedRun {
	return testbedRun{
		Testbed: Testbed{LinkBps: 10e9},
		Sections: Sections{
			Name:    "golden",
			Parking: parking(pp),
			Traffic: Traffic{SendBps: sendGbps * 1e9, Dist: trafficgen.Datacenter{}},
			Chain: func() *nf.Chain {
				return nf.NewChain(
					nf.NewFirewall([]nf.FirewallRule{{Prefix: packet.IPv4Addr{172, 16, 0, 0}, Bits: 12}}),
					nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}),
				)
			},
			Opts: RunOptions{Seed: seed, WarmupNs: 2e6, MeasureNs: 10e6},
		},
	}
}

// assertGolden compares every pre-refactor Result field. Floats must
// match to relative 1e-12: the event timeline is identical, so the same
// additions happen in the same order.
func assertGolden(t *testing.T, name string, got, want Result) {
	t.Helper()
	feq := func(field string, g, w float64) {
		if g != w && math.Abs(g-w) > 1e-12*math.Abs(w) {
			t.Errorf("%s: %s = %v, want %v", name, field, g, w)
		}
	}
	ueq := func(field string, g, w uint64) {
		if g != w {
			t.Errorf("%s: %s = %d, want %d", name, field, g, w)
		}
	}
	feq("SendGbps", got.SendGbps, want.SendGbps)
	feq("GoodputGbps", got.GoodputGbps, want.GoodputGbps)
	feq("ToNFGbps", got.ToNFGbps, want.ToNFGbps)
	feq("ToNFMpps", got.ToNFMpps, want.ToNFMpps)
	feq("AvgLatencyUs", got.AvgLatencyUs, want.AvgLatencyUs)
	feq("P99LatencyUs", got.P99LatencyUs, want.P99LatencyUs)
	feq("MaxLatencyUs", got.MaxLatencyUs, want.MaxLatencyUs)
	feq("JitterUs", got.JitterUs, want.JitterUs)
	ueq("Delivered", got.Delivered, want.Delivered)
	feq("UnintendedDropRate", got.UnintendedDropRate, want.UnintendedDropRate)
	ueq("NFDrops", got.NFDrops, want.NFDrops)
	feq("PCIeGbps", got.PCIeGbps, want.PCIeGbps)
	feq("PCIeUtilPct", got.PCIeUtilPct, want.PCIeUtilPct)
	ueq("Splits", got.Splits, want.Splits)
	ueq("Merges", got.Merges, want.Merges)
	ueq("Evictions", got.Evictions, want.Evictions)
	ueq("Premature", got.Premature, want.Premature)
	ueq("OccupiedSkips", got.OccupiedSkips, want.OccupiedSkips)
	ueq("SmallSkips", got.SmallSkips, want.SmallSkips)
	ueq("ExplicitDrops", got.ExplicitDrops, want.ExplicitDrops)
	if got.Healthy != want.Healthy {
		t.Errorf("%s: Healthy = %t, want %t", name, got.Healthy, want.Healthy)
	}
	feq("SRAMPct", got.SRAMPct, want.SRAMPct)
}

func TestTestbedFabricParity(t *testing.T) {
	// PayloadPark at light load.
	assertGolden(t, "pp-light", goldenCfg(true, 4, 1).run(t), Result{
		Name: "golden", SendGbps: 3.9998584, GoodputGbps: 0.1912848, ToNFGbps: 3.6220184,
		ToNFMpps: 0.5693, AvgLatencyUs: 5.301349384885778, P99LatencyUs: 7.077478645124461,
		MaxLatencyUs: 6.846, JitterUs: 1.5446506151142225, Delivered: 0x163a,
		PCIeGbps: 7.1004792, PCIeUtilPct: 10.758301818181819,
		Splits: 0x115e, Merges: 0x115f, SmallSkips: 0x714, Healthy: true,
		SRAMPct: 17.500101725260418,
	})
	// Baseline at light load.
	assertGolden(t, "baseline-light", goldenCfg(false, 4, 1).run(t), Result{
		Name: "golden", SendGbps: 3.9998584, GoodputGbps: 0.1912848, ToNFGbps: 4.1078976,
		ToNFMpps: 0.5693, AvgLatencyUs: 5.576470650263611, P99LatencyUs: 7.077478645124461,
		MaxLatencyUs: 7.132, JitterUs: 1.5555293497363882, Delivered: 0x163a,
		PCIeGbps: 8.0724656, PCIeUtilPct: 12.231008484848482, Healthy: true,
	})
	// PayloadPark past saturation (queue drops, unhealthy).
	assertGolden(t, "pp-overload", goldenCfg(true, 12, 3).run(t), Result{
		Name: "golden", SendGbps: 12.0083288, GoodputGbps: 0.5208672, ToNFGbps: 9.8259184,
		ToNFMpps: 1.5502, AvgLatencyUs: 572.5190586489431, P99LatencyUs: 890.386482912101,
		MaxLatencyUs: 843.987, JitterUs: 271.4679413510569, Delivered: 0x3c8b,
		UnintendedDropRate: 0.01662583129156458,
		PCIeGbps:           19.609192, PCIeUtilPct: 29.710896969696968,
		Splits: 0x3346, Merges: 0x32c2, SmallSkips: 0x1643,
		SRAMPct: 17.500101725260418,
	})
	// Recirculation + explicit drop + lossy NF link + jittery server.
	cfg := goldenCfg(true, 6, 4)
	cfg.Parking.Recirculate = true
	cfg.Parking.ExplicitDrop = true
	cfg.Chain = func() *nf.Chain {
		return nf.NewChain(nf.NewFirewall(nf.BlacklistFraction(0.1)), nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}))
	}
	cfg.NFLinkLossRate = 0.001
	srv := DefaultServerModel()
	srv.ServiceJitterPct = 0.2
	cfg.Server = srv
	assertGolden(t, "pp-recirc-lossy", cfg.run(t), Result{
		Name: "golden", SendGbps: 6.0014192, GoodputGbps: 0.2881536, ToNFGbps: 4.7451784,
		ToNFMpps: 0.8576, AvgLatencyUs: 5.386311221945125, P99LatencyUs: 7.077478645124461,
		MaxLatencyUs: 6.559, JitterUs: 1.1726887780548756, Delivered: 0x1f54,
		UnintendedDropRate: 0.0023285597857724996, NFDrops: 0xf9,
		PCIeGbps: 8.996688, PCIeUtilPct: 13.631345454545455,
		Splits: 0x1478, Merges: 0x132c, SmallSkips: 0x104c, ExplicitDrops: 0x140,
		SRAMPct: 17.500101725260418,
	})
}

func TestMultiServerFabricParity(t *testing.T) {
	cfg := multiServerRun{
		MultiServer: MultiServer{Servers: 8, LinkBps: 10e9},
		Sections: Sections{
			Parking: Parking{Mode: ParkEdge, Slots: 12000, MaxExpiry: 1},
			Traffic: Traffic{SendBps: 11e9, Dist: trafficgen.Fixed(384)},
			Opts:    RunOptions{Seed: 7, WarmupNs: 5e6, MeasureNs: 20e6},
		},
	}
	r := cfg.run(t)
	if math.Abs(r.SRAMAvgPct-25.634969) > 1e-5 || math.Abs(r.SRAMPeakPct-29.296875) > 1e-5 {
		t.Errorf("SRAM = %.6f/%.6f, want 25.634969/29.296875", r.SRAMAvgPct, r.SRAMPeakPct)
	}
	// Server 1 and 2 of the pre-refactor run, field for field. SendGbps
	// and Delivered were not recorded pre-refactor (always zero); their
	// values here were captured when the measurement was added, and so
	// were Splits and Merges when the multi-server runner stopped discarding its
	// program (they had been zero whatever happened), and P99LatencyUs when
	// every flow of every graph kept a latency histogram — every other
	// timeline-derived field is still the original golden.
	assertGolden(t, "ms-pp-1", r.PerServer[0], Result{
		Name: "server-1", SendGbps: 11.0106624, GoodputGbps: 1.2041904, ToNFGbps: 7.311156, ToNFMpps: 3.5839,
		AvgLatencyUs: 3.673, P99LatencyUs: 3.9802860365986614, MaxLatencyUs: 3.673, Delivered: 71671, Healthy: true,
		Splits: 80648, Merges: 80655,
	})
	assertGolden(t, "ms-pp-2", r.PerServer[1], Result{
		Name: "server-2", SendGbps: 11.010816, GoodputGbps: 1.2042072, ToNFGbps: 7.311258, ToNFMpps: 3.58395,
		AvgLatencyUs: 3.673, P99LatencyUs: 3.9802860365986614, MaxLatencyUs: 3.673, Delivered: 71672, Healthy: true,
		Splits: 80647, Merges: 80654,
	})

	cfg.Parking.Mode = ParkNone
	cfg.Servers = 3
	r = cfg.run(t)
	assertGolden(t, "ms-base-1", r.PerServer[0], Result{
		Name: "server-1", SendGbps: 11.0106624, GoodputGbps: 0.98742, ToNFGbps: 9.59208, ToNFMpps: 2.93875,
		AvgLatencyUs: 841.3129976858164, P99LatencyUs: 890.386482912101, MaxLatencyUs: 841.452, Delivered: 58768,
		JitterUs: 0.13900231418358544, UnintendedDropRate: 0.1441744322303443,
	})
	assertGolden(t, "ms-base-3", r.PerServer[2], Result{
		Name: "server-3", SendGbps: 11.010816, GoodputGbps: 0.98742, ToNFGbps: 9.59208, ToNFMpps: 2.93875,
		AvgLatencyUs: 841.3129984005208, P99LatencyUs: 890.386482912101, MaxLatencyUs: 841.452, Delivered: 58769,
		JitterUs: 0.1390015994792293, UnintendedDropRate: 0.1441724210085792,
	})
}

// TestGoodputUnitAcrossTopologies pins what goodput_gbps means: on every
// topology it is the paper's header-unit goodput — 42 B of useful header
// per packet delivered to the NF server (§6.1) — so below saturation it
// follows the packet rate alone, whatever parking leaves on the link.
func TestGoodputUnitAcrossTopologies(t *testing.T) {
	edges := func(mode ParkMode) map[string][]Result {
		s := Sections{
			Parking: Parking{Mode: mode},
			Traffic: Traffic{SendBps: 2e9, Dist: trafficgen.Fixed(384)},
			Opts:    RunOptions{Seed: 3, WarmupNs: 1e6, MeasureNs: 5e6},
		}
		out := map[string][]Result{
			"testbed":     {testbedRun{Sections: s}.run(t)},
			"multiserver": multiServerRun{MultiServer: MultiServer{Servers: 2}, Sections: s}.run(t).PerServer,
		}
		for _, fl := range (leafSpineRun{LeafSpine: LeafSpine{Leaves: 4, Spines: 2}, Sections: s}).run(t).Flows {
			out["leafspine"] = append(out["leafspine"], Result{GoodputGbps: fl.GoodputGbps, ToNFMpps: fl.ToNFMpps})
		}
		return out
	}
	base, parked := edges(ParkNone), edges(ParkEdge)
	const want = 2 * 42.0 / 384 // 2 Gbps of 384 B frames, 42 B of each useful
	for kind, rs := range base {
		for i, b := range rs {
			p := parked[kind][i]
			for arm, r := range map[string]Result{"baseline": b, "parked": p} {
				if unit := r.ToNFMpps * 42 * 8 / 1e3; math.Abs(r.GoodputGbps-unit) > 1e-12*unit {
					t.Errorf("%s edge %d %s: GoodputGbps = %v, want ToNFMpps x 42 B = %v", kind, i, arm, r.GoodputGbps, unit)
				}
				if math.Abs(r.GoodputGbps-want) > 0.02*want {
					t.Errorf("%s edge %d %s: GoodputGbps = %v, want %v within 2%%", kind, i, arm, r.GoodputGbps, want)
				}
			}
			if math.Abs(p.GoodputGbps-b.GoodputGbps) > 0.02*b.GoodputGbps {
				t.Errorf("%s edge %d: parked goodput %v vs baseline %v differ by more than 2%%", kind, i, p.GoodputGbps, b.GoodputGbps)
			}
		}
	}
}

// TestSimEqualsReferenceWalk is the sim ≡ reference leg of the three-way
// parity the shared graph makes possible (live ≡ reference is internal/
// live's lockstep gate): below saturation, with more slots than packets in
// flight, the event engine can reorder nothing a counter sees — so every
// whole-run count of the simulation must equal what Walker produces when it
// carries the same generators' first `sent` frames through the same graph
// one at a time. Per switch: Rx, Tx and the parking counters; per flow:
// delivered to the sink and dropped by the NF. The simulation's side is
// read from its metrics registry, by the graph's own switch and cable
// names; the reference side also conserves frames and bytes, so the graph
// itself is checked, not just its two realisations against each other.
func TestSimEqualsReferenceWalk(t *testing.T) {
	fwChain := func() *nf.Chain { return nf.NewChain(nf.NewFirewall(nf.BlacklistFraction(0.2)), nf.MACSwap{}) }
	sec := func(chain func() *nf.Chain) Sections {
		return Sections{
			Name:    "parity",
			Parking: Parking{Mode: ParkEdge, Slots: 2048},
			Traffic: Traffic{SendBps: 2e9, Flows: 64},
			Chain:   chain,
			Opts:    RunOptions{Seed: 5, WarmupNs: 2e5, MeasureNs: 2e6},
		}
	}
	for _, tc := range []struct {
		name string
		topo topology
		pin  func(*Sections) // clears what the topology pins
	}{
		{"testbed", &Testbed{}, func(*Sections) {}},
		{"multiserver-4", &MultiServer{Servers: 4}, func(s *Sections) { s.Chain, s.Traffic.Flows = nil, 0 }},
		{"leafspine-4x2", &LeafSpine{Leaves: 4, Spines: 2}, func(s *Sections) { s.Chain = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sec(fwChain)
			tc.pin(&s)
			reg := obs.NewRegistry()
			if _, err := runTopology(tc.topo, &s, Wiring{Obs: ObsConfig{Metrics: reg}}); err != nil {
				t.Fatal(err)
			}
			g := tc.topo.Graph(s)
			sim := make(map[string]uint64)
			for _, c := range reg.Snapshot().Counters {
				sim[c.Name] = c.Value
			}
			linkTx := func(name string) uint64 { return sim[fmt.Sprintf("pp_link_tx_packets_total{link=%q}", name)] }

			sws, err := g.RealiseAll()
			if err != nil {
				t.Fatal(err)
			}
			w := NewWalker(g, sws)
			var sent uint64
			for i := range g.Flows {
				fl := &g.Flows[i]
				gen, srv := trafficgen.New(fl.Traffic), nf.NewServer(s.ServerConfig(fl))
				var nfPkt packet.Packet
				var resp []byte
				var delivered, nfDropped uint64
				n := linkTx(fl.Gen.ToSwitch)
				sent += n
				for k := uint64(0); k < n; k++ {
					frame := gen.Next().Serialize()
					out, err := w.Send(i, frame, func(_ *Endpoint, frame []byte) []byte {
						if err := packet.ParseAtInto(&nfPkt, frame, -1); err != nil {
							t.Fatal(err)
						}
						res := srv.Handle(&nfPkt)
						if res.Out == nil {
							nfDropped++
							return nil
						}
						resp = res.Out.AppendSerialize(resp[:0])
						return resp
					})
					if err != nil {
						t.Fatal(err)
					}
					if out != nil {
						delivered++
						// The graph is also held to the paper's §6.2.6
						// property, so a wrong route or merge port cannot
						// pass by being wrong on both sides: past the
						// swapped addresses, the sink gets the sent bytes.
						if !bytes.Equal(out[12:], frame[12:]) {
							t.Fatalf("%s frame %d: sink received %d B that are not the %d B sent", fl.Name, k, len(out), len(frame))
						}
					}
				}
				if delivered+nfDropped != n {
					t.Errorf("%s: %d sent, %d delivered + %d NF-dropped: frames were lost in the reference walk", fl.Name, n, delivered, nfDropped)
				}
				if got := linkTx(fl.Sink.FromSwitch); got != delivered {
					t.Errorf("%s: sim delivered %d, reference %d", fl.Name, got, delivered)
				}
				if got := linkTx(fl.NF.FromSwitch) - linkTx(fl.NF.ToSwitch); got != nfDropped {
					t.Errorf("%s: sim NF dropped %d, reference %d", fl.Name, got, nfDropped)
				}
				if tc.name == "testbed" && nfDropped == 0 {
					t.Error("the firewall dropped nothing: the NF-drop leg is vacuous")
				}
			}
			if sent < 100 {
				t.Fatalf("only %d packets sent: the comparison is vacuous", sent)
			}
			var splits uint64
			for i, sw := range sws {
				name := g.Switches[i].Name
				eq := func(what string, simV, refV uint64) {
					if simV != refV {
						t.Errorf("%s %s: sim %d, reference %d", name, what, simV, refV)
					}
				}
				eq("rx", sim[fmt.Sprintf("pp_switch_rx_packets_total{switch=%q}", name)], sw.RxPackets())
				eq("tx", sim[fmt.Sprintf("pp_switch_tx_packets_total{switch=%q}", name)], sw.TxPackets())
				for k, prog := range sw.Programs() {
					ctr := func(family string) uint64 {
						return sim[fmt.Sprintf("pp_park_%s_total{switch=%q,program=\"%d\"}", family, name, k)]
					}
					eq(fmt.Sprintf("program %d splits", k), ctr("splits"), prog.C.Splits.Value())
					eq(fmt.Sprintf("program %d merges", k), ctr("merges"), prog.C.Merges.Value())
					eq(fmt.Sprintf("program %d small-payload skips", k), ctr("small_payload_skips"), prog.C.SmallPayloadSkips.Value())
					splits += prog.C.Splits.Value()
				}
			}
			if splits == 0 {
				t.Error("nothing parked: the program-counter leg is vacuous")
			}
		})
	}
}
