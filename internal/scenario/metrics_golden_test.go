package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// The two simulated benchmark workloads, at their quick size (a tenth of
// the timed windows), seed 1. Their Report.Metrics snapshot counts every
// engine event, link hop, switch pass and sink delivery, so a change to
// the engine or a hop's shape that runs one event more or less moves it.

// benchFig7 is the parking half of the Fig. 7 testbed workload: the
// paper's FW-NAT-LB chain at 11 Gbps on the NetBricks calibration.
func benchFig7() Scenario {
	rules := make([]nf.FirewallRule, 20)
	for i := range rules {
		rules[i] = nf.FirewallRule{Prefix: packet.IPv4Addr{172, 16, byte(i), 0}, Bits: 24}
	}
	return Scenario{
		Name:     "bench/testbed_fig7",
		Topology: Testbed{LinkBps: 10e9},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 24341, MaxExpiry: 1},
		Traffic:  Traffic{SendBps: 11e9, Dist: trafficgen.Datacenter{}, Flows: 1024},
		Server: sim.ServerModel{
			FreqHz: 2.3e9, Cores: 1, RxFixedNs: 45, RxPerByteNs: 0.02,
			NICRing: 1024, StageQueue: 4096, PCIeBps: 66e9, PCIeOverheadBytes: 8,
		},
		Chain: func() *nf.Chain {
			lb, err := nf.NewLoadBalancer(map[string]packet.IPv4Addr{
				"backend-0": {10, 2, 0, 10}, "backend-1": {10, 2, 0, 11},
				"backend-2": {10, 2, 0, 12}, "backend-3": {10, 2, 0, 13},
			})
			if err != nil {
				panic(err)
			}
			return nf.NewChain(nf.NewFirewall(rules), nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}), lb)
		},
		Observe: Observe{Metrics: true},
		Opts:    RunOptions{Seed: 1, WarmupNs: 2e5, MeasureNs: 3.5e6},
	}
}

// benchFabric is the 16x8 leaf-spine workload at 60 Gbps per source.
func benchFabric() Scenario {
	return Scenario{
		Name:     "bench/fabric_16x8",
		Topology: LeafSpine{Leaves: 16, Spines: 8, LinkBps: 100e9},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 8192, MaxExpiry: 1},
		Traffic:  Traffic{SendBps: 60e9, Dist: trafficgen.Datacenter{}, Flows: 1024},
		Server: sim.ServerModel{
			FreqHz: 2.3e9, Cores: 8, RxFixedNs: 65, RxPerByteNs: 0.023,
			NICRing: 1024, StageQueue: 4096, PCIeBps: 66e9, PCIeOverheadBytes: 8,
		},
		Observe: Observe{Metrics: true},
		Opts:    RunOptions{Seed: 1, WarmupNs: 1e4, MeasureNs: 3e4},
	}
}

// TestBenchMetricsGolden pins the metrics snapshot of both workloads byte
// for byte against testdata/metrics.<workload>.quick.seed1.json, after
// holding its per-entry hit counts to the parking counters (hitsAgree).
func TestBenchMetricsGolden(t *testing.T) {
	for name, sc := range map[string]Scenario{"testbed_fig7": benchFig7(), "fabric_16x8": benchFabric()} {
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hitsAgree(t, name, rep.Metrics)
		got, err := json.MarshalIndent(rep.Metrics, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := "testdata/metrics." + name + ".quick.seed1.json"
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 1; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Errorf("%s: metrics moved from %s at line %d, after %s:\n got %s\nwant %s",
						name, path, i+1, strings.TrimSpace(w[i-1]), strings.TrimSpace(g[i]), strings.TrimSpace(w[i]))
					break
				}
			}
			if len(g) != len(w) {
				t.Errorf("%s: metrics snapshot has %d lines, %s has %d", name, len(g), path, len(w))
			}
		}
	}
}

// hitsAgree checks, on every PayloadPark program of a snapshot, that the
// pipe's count of an entry's fires equals what the entry's action counts:
// two writers, rmt's Process and the action body, that must agree.
func hitsAgree(t *testing.T, name string, snap *obs.Snapshot) {
	t.Helper()
	counters := map[string]uint64{}
	var programs []string // each program's label set
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
		if labels, ok := strings.CutPrefix(c.Name, "pp_park_splits_total{"); ok {
			programs = append(programs, strings.TrimSuffix(labels, "}"))
		}
	}
	if len(programs) == 0 {
		t.Fatalf("%s: no PayloadPark program in the snapshot", name)
	}
	for _, lbl := range programs {
		for _, eq := range []struct {
			table, entry string
			park         []string
		}{
			{"pp_split_small", "add_disabled_header_demoted", []string{"demoted_skips"}},
			{"pp_split_small", "add_disabled_header_small", []string{"small_payload_skips"}},
			{"pp_merge_disabled", "strip_disabled_header", []string{"split_disabled"}},
			{"pp_tag_validate", "drop_bad_crc", []string{"bad_tag_drops"}},
			{"pp_metadata", "split_probe", []string{"splits", "occupied_skips"}},
			{"pp_metadata", "explicit_drop", []string{"explicit_drops", "stale_explicit_drops"}},
		} {
			hits, ok := counters[fmt.Sprintf("pp_rmt_entry_hits_total{%s,table=%q,entry=%q}", lbl, eq.table, eq.entry)]
			if !ok {
				t.Errorf("%s {%s}: no hit count for %s/%s", name, lbl, eq.table, eq.entry)
			}
			var sum uint64
			for _, c := range eq.park {
				sum += counters["pp_park_"+c+"_total{"+lbl+"}"]
			}
			if hits != sum {
				t.Errorf("%s {%s}: %s/%s fired %d times, pp_park %v sum to %d", name, lbl, eq.table, eq.entry, hits, eq.park, sum)
			}
		}
	}
}
