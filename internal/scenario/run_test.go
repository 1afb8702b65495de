package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

func fwNATChain() *nf.Chain {
	return nf.NewChain(
		nf.NewFirewall([]nf.FirewallRule{{Prefix: packet.IPv4Addr{172, 16, 0, 0}, Bits: 12}}),
		nf.NewNAT(packet.IPv4Addr{198, 51, 100, 1}),
	)
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	replay := func() trafficgen.Source { return nil }
	const trio = "Recirculate/BoundaryOffset/ExplicitDrop unsupported"
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"nil topology", Scenario{}, "nil Topology"},
		{"bad servers", Scenario{Topology: MultiServer{Servers: 9}}, "multiserver: servers = 9 outside [1,8]"},
		{"ms chain", Scenario{Topology: MultiServer{}, Chain: fwNATChain}, "MAC-swap"},
		{"ms everyhop", Scenario{Topology: MultiServer{}, Parking: Parking{Mode: sim.ParkEveryHop}}, "multi-switch"},
		{"bad geometry", Scenario{Topology: LeafSpine{Leaves: 40}}, "leafspine: 40x2 outside supported geometry"},
		{"merge-port geometry", Scenario{Topology: LeafSpine{Leaves: 4, Spines: 3}, Parking: Parking{Mode: sim.ParkEdge}}, "merge port"},
		{"fail needs 3 spines", Scenario{Topology: LeafSpine{Leaves: 4, Spines: 2, FailLink: true}, Parking: Parking{Mode: sim.ParkEdge}}, "third spine"},
		{"ecmp x everyhop", Scenario{Topology: LeafSpine{}, Parking: Parking{Mode: sim.ParkEveryHop}, Control: Control{ECMP: true}}, "cannot stripe"},
		{"compress x everyhop", Scenario{Topology: LeafSpine{}, Parking: Parking{Mode: sim.ParkEveryHop}, Program: Program{Kind: "compress"}}, "every-hop"},
		// The rules sim's Validate methods own, as Run reports them
		// (sim.TestRulesHaveOneOwner calls the topologies directly).
		{"tb ecmp", Scenario{Topology: Testbed{}, Control: Control{ECMP: true}}, "scenario: testbed: ECMP needs a multipath topology (use LeafSpine)"},
		{"ms chain exact", Scenario{Topology: MultiServer{}, Chain: fwNATChain}, "scenario: multiserver: custom Chain unsupported (the §6.2.3 deployment pins the MAC-swap chain)"},
		{"ms source", Scenario{Topology: MultiServer{}, Traffic: Traffic{Source: replay}}, "scenario: multiserver: Traffic.Source unsupported"},
		{"ms recirculate", Scenario{Topology: MultiServer{}, Parking: Parking{Recirculate: true}}, "scenario: multiserver: " + trio},
		{"ms boundary", Scenario{Topology: MultiServer{}, Parking: Parking{BoundaryOffset: 32}}, "scenario: multiserver: " + trio},
		{"ms explicit drop", Scenario{Topology: MultiServer{}, Parking: Parking{ExplicitDrop: true}}, "scenario: multiserver: " + trio},
		{"ms everyhop exact", Scenario{Topology: MultiServer{}, Parking: Parking{Mode: sim.ParkEveryHop}}, "scenario: multiserver: ParkEveryHop needs a multi-switch topology"},
		{"ms control", Scenario{Topology: MultiServer{}, Parking: Parking{Mode: sim.ParkEdge}, Control: Control{Adaptive: true}}, "scenario: multiserver: control plane unsupported (use Testbed or LeafSpine)"},
		{"ms program", Scenario{Topology: MultiServer{}, Program: Program{Kind: "compress"}}, "scenario: multiserver: table programs unsupported (use Testbed or LeafSpine)"},
		{"ls chain", Scenario{Topology: LeafSpine{}, Chain: fwNATChain}, "scenario: leafspine: custom Chain unsupported (fabric NFs pin the MAC-swap chain)"},
		{"ls source", Scenario{Topology: LeafSpine{}, Traffic: Traffic{Source: replay}}, "scenario: leafspine: Traffic.Source unsupported"},
		{"ls recirculate", Scenario{Topology: LeafSpine{}, Parking: Parking{Recirculate: true}}, "scenario: leafspine: " + trio},
		{"ls explicit drop", Scenario{Topology: LeafSpine{}, Parking: Parking{ExplicitDrop: true}}, "scenario: leafspine: " + trio},
		// ctrl.Config.Validate's rules, on every topology that runs a
		// controller (a negative period used to hang the simulated runs).
		{"tb negative period", Scenario{Topology: Testbed{}, Parking: Parking{Mode: sim.ParkEdge}, Control: Control{Adaptive: true, PeriodNs: -1}}, "scenario: testbed: control.period_ns = -1 outside [0, +Inf)"},
		{"ls negative period", Scenario{Topology: LeafSpine{}, Parking: Parking{Mode: sim.ParkEdge}, Control: Control{ECMP: true, PeriodNs: -250000}}, "scenario: leafspine: control.period_ns = -250000 outside [0, +Inf)"},
		{"live negative period", Scenario{Topology: Live{}, Parking: Parking{Mode: sim.ParkEdge}, Control: Control{Adaptive: true, PeriodNs: -1}}, "scenario: live: control.period_ns = -1 outside [0, +Inf)"},
	}
	for _, c := range cases {
		_, err := Run(ctx, c.sc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

// TestQuickWindows checks the RunOptions window resolution.
func TestQuickWindows(t *testing.T) {
	w, m := RunOptions{}.Windows()
	if w != 10e6 || m != 40e6 {
		t.Errorf("default windows %d/%d", w, m)
	}
	w, m = RunOptions{Quick: true}.Windows()
	if w != 2e6 || m != 8e6 {
		t.Errorf("quick windows %d/%d", w, m)
	}
	w, m = RunOptions{Quick: true, WarmupNs: 5, MeasureNs: 6}.Windows()
	if w != 5 || m != 6 {
		t.Errorf("explicit windows %d/%d", w, m)
	}
}

// TestRunPartitionsDeterminism pins the deprecated RunOptions.Partitions'
// contract at the scenario layer: a Scenario file that still sets it
// decodes, and its Report equals the same file's without it, on every
// simulated topology.
func TestRunPartitionsDeterminism(t *testing.T) {
	for _, tc := range []struct{ name, topology, traffic string }{
		{"leafspine", `{"kind":"leafspine","config":{"leaves":4,"spines":2}}`, "6000000000"},
		{"testbed", `{"kind":"testbed"}`, "2000000000"},
		{"multiserver", `{"kind":"multiserver","config":{"servers":2}}`, "2000000000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(extra string) *Report {
				t.Helper()
				file := fmt.Sprintf(`{"name":"legacy","topology":%s,"parking":{"mode":"edge"},"traffic":{"send_bps":%s},`+
					`"opts":{"seed":1,"warmup_ns":1000000,"measure_ns":4000000%s}}`, tc.topology, tc.traffic, extra)
				var sc Scenario
				if err := json.Unmarshal([]byte(file), &sc); err != nil {
					t.Fatal(err)
				}
				rep, err := Run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if want, got := run(""), run(`,"partitions":4`); !reflect.DeepEqual(want, got) {
				t.Errorf("partitions changed the report:\nwithout: %+v\nwith:    %+v", want, got)
			}
		})
	}
}

// TestRunCollectsLargeWorld: a run that allocated tens of megabytes (the
// benchmark's 16x8 fabric) returns with its world collected, so a next run
// in the process starts from the same heap whatever the collector's pacing
// did mid-run. Without the collection the heap still holds ~50 MB here.
func TestRunCollectsLargeWorld(t *testing.T) {
	_, err := Run(context.Background(), Scenario{
		Topology: LeafSpine{Leaves: 16, Spines: 8, LinkBps: 100e9},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 8192, MaxExpiry: 1},
		Traffic:  Traffic{SendBps: 60e9, Dist: trafficgen.Datacenter{}, Flows: 1024},
		Opts:     RunOptions{Seed: 3, WarmupNs: 1e5, MeasureNs: 3e5},
	})
	if err != nil {
		t.Fatal(err)
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	if got := heap[0].Value.Uint64(); got > 16<<20 {
		t.Errorf("after the run the heap holds %.1f MB of objects, want the world collected", float64(got)/(1<<20))
	}
}

// TestHostileSlots: a parking table outside the switch's range is an error
// naming the field on every topology — the three simulated ones used to
// panic while attaching the program — a zero Slots is the topology's
// default, and a table in range that still overflows a pipe's SRAM
// (multiserver puts two per pipe) surfaces the placement failure as an
// error too. A table whose re-claims reissue evicted tags (65535 slots at
// the default Expiry 1) is refused naming both fields.
func TestHostileSlots(t *testing.T) {
	short := RunOptions{Seed: 1, WarmupNs: 1e5, MeasureNs: 2e5}
	for _, topo := range []Topology{Testbed{}, MultiServer{Servers: 2}, LeafSpine{}, Live{Frames: 4}} {
		for _, tc := range []struct {
			slots int
			want  string // "" runs clean
		}{
			{0, ""},
			{65536, ""},
			{65537, "parking.slots = 65537 outside [1, 65536]"},
			{100000, "parking.slots = 100000 outside [1, 65536]"},
			{-1, "parking.slots = -1 outside [1, 65536]"},
			{65535, "parking.slots × parking.max_expiry = 65535 × 1 is a multiple of 65535: a re-claimed slot would reissue its evicted packet's tag"},
		} {
			if topo.Kind() == "multiserver" && tc.slots == 65536 {
				tc.want = "SRAM overflow"
			}
			_, err := Run(context.Background(), Scenario{
				Topology: topo,
				Parking:  Parking{Mode: sim.ParkEdge, Slots: tc.slots},
				Traffic:  Traffic{SendBps: 1e9},
				Opts:     short,
			})
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s slots=%d: %v", topo.Kind(), tc.slots, err)
			case tc.want == "SRAM overflow" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s slots=%d: err = %v, want the placement failure", topo.Kind(), tc.slots, err)
			case strings.HasPrefix(tc.want, "parking") && (err == nil || err.Error() != "scenario: "+topo.Kind()+": "+tc.want):
				t.Errorf("%s slots=%d: err = %v, want %q", topo.Kind(), tc.slots, err, tc.want)
			}
		}
	}

	// The file CI feeds `ppbench -scenario` stays hostile.
	data, err := os.ReadFile("testdata/hostile-slots.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "parking.slots = 100000") {
		t.Errorf("testdata/hostile-slots.json: err = %v, want the parking.slots range error", err)
	}
}

// TestHostileRates: a rate, window, loss rate or failure time the event
// engine cannot run by is an error naming the field on every simulated
// topology that has it — each of these used to run and report a healthy-looking
// Report (a negative link rate serializes backwards in time; an unset
// send rate paces a packet every nanosecond).
func TestHostileRates(t *testing.T) {
	ok := Traffic{SendBps: 1e9}
	short := RunOptions{Seed: 1, WarmupNs: 1e5, MeasureNs: 2e5}
	all := []Topology{Testbed{}, MultiServer{Servers: 2}, LeafSpine{}}
	for _, tc := range []struct {
		want    string
		traffic Traffic
		opts    RunOptions
		topos   []Topology
	}{
		{"link_bps = -5 outside (0, +Inf)", ok, short,
			[]Topology{Testbed{LinkBps: -5}, MultiServer{Servers: 2, LinkBps: -5}, LeafSpine{LinkBps: -5}}},
		{"traffic.send_bps = 0 outside (0, +Inf)", Traffic{}, short, all},
		{"traffic.send_bps = -1e+09 outside (0, +Inf)", Traffic{SendBps: -1e9}, short, all},
		{"opts.measure_ns = -5000000 outside [1, +Inf)", ok, RunOptions{Quick: true, MeasureNs: -5e6}, all},
		{"opts.warmup_ns = -1 outside [0, +Inf)", ok, RunOptions{Quick: true, WarmupNs: -1}, all},
		// A negative reroute delay moved the route before the link failed
		// and reported a healthy run; a negative failure time is as wrong.
		{"fail_at_ns = -1000000 outside [0, +Inf)", ok, short,
			[]Topology{LeafSpine{Leaves: 4, Spines: 3, FailLink: true, FailAtNs: -1e6}}},
		{"reroute_ns = -3000000 outside [0, +Inf)", ok, short,
			[]Topology{LeafSpine{Leaves: 4, Spines: 3, FailLink: true, RerouteNs: -3e6}}},
		// A negative loss rate ran lossless; a rate above 1 dropped everything.
		{"nf_link_loss_rate = -0.5 outside [0, 1]", ok, short, []Topology{Testbed{NFLinkLossRate: -0.5}}},
		{"nf_link_loss_rate = 3 outside [0, 1]", ok, short, []Topology{Testbed{NFLinkLossRate: 3}}},
	} {
		for _, topo := range tc.topos {
			_, err := Run(context.Background(), Scenario{Topology: topo, Traffic: tc.traffic, Opts: tc.opts})
			if want := "scenario: " + topo.Kind() + ": " + tc.want; err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", topo.Kind(), err, want)
			}
		}
	}

	data, err := os.ReadFile("testdata/hostile-rates.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sc); err == nil || err.Error() != "scenario: testbed: link_bps = -5 outside (0, +Inf)" {
		t.Errorf("testdata/hostile-rates.json: err = %v, want the link_bps range error", err)
	}
}

// TestHostileLive: counts the socket fabric cannot run are errors naming
// the field, from the runner and from the reference replay alike, at once
// — frames: -1 used to panic sizing the frame table and window: -5 sent
// nothing until the 60 s deadline. A
// fixed frame size below the header unit (which every topology used to
// report as a healthy run at the written size) is rejected the same way.
func TestHostileLive(t *testing.T) {
	for _, tc := range []struct {
		topo Live
		want string
	}{
		{Live{Frames: -1}, "frames = -1 outside [1, 1048576]"},
		{Live{Frames: 1 << 30}, "frames = 1073741824 outside [1, 1048576]"},
		{Live{Window: -5}, "window = -5 outside [1, 65536]"},
		{Live{Geometry: "4x2", Frames: -1}, "frames = -1 outside [1, 1048576]"},
	} {
		sc := Scenario{Topology: tc.topo, Parking: Parking{Mode: sim.ParkEdge}}
		begin := time.Now()
		_, runErr := Run(context.Background(), sc)
		_, refErr := live.ReferenceRun(live.Topology(tc.topo), sc.sections())
		if d := time.Since(begin); d > time.Second {
			t.Errorf("%+v: rejected after %v, want at once", tc.topo, d)
		}
		if want := "scenario: live: " + tc.want; runErr == nil || runErr.Error() != want {
			t.Errorf("%+v: Run err = %v, want %q", tc.topo, runErr, want)
		}
		if want := "live: " + tc.want; refErr == nil || refErr.Error() != want {
			t.Errorf("%+v: ReferenceRun err = %v, want %q", tc.topo, refErr, want)
		}
	}

	for _, topo := range []Topology{Testbed{}, MultiServer{Servers: 2}, LeafSpine{}, Live{Frames: 4}} {
		for size, want := range map[int]string{
			20:   "traffic.fixed_size = 20 outside [42, 1500]",
			-7:   "traffic.fixed_size = -7 outside [42, 1500]",
			1501: "traffic.fixed_size = 1501 outside [42, 1500]",
		} {
			_, err := Run(context.Background(), Scenario{Topology: topo, Traffic: Traffic{SendBps: 1e9, FixedSize: size}})
			if want := "scenario: " + topo.Kind() + ": " + want; err == nil || err.Error() != want {
				t.Errorf("%s fixed_size=%d: err = %v, want %q", topo.Kind(), size, err, want)
			}
		}
	}

	data, err := os.ReadFile("testdata/hostile-live.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sc); err == nil || err.Error() != "scenario: live: frames = -1 outside [1, 1048576]" {
		t.Errorf("testdata/hostile-live.json: err = %v, want the frames range error", err)
	}
}

// TestHostileControl: the file CI feeds `ppbench -scenario` is an error
// naming control.period_ns, at once. A negative period used to reschedule
// the controller's tick at the same nanosecond forever; the deadline turns
// that hang back into a failure here.
func TestHostileControl(t *testing.T) {
	data, err := os.ReadFile("testdata/hostile-control.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Run(ctx, sc); err == nil || err.Error() != "scenario: testbed: control.period_ns = -1 outside [0, +Inf)" {
		t.Errorf("testdata/hostile-control.json: err = %v, want the control.period_ns range error", err)
	}
}

// TestReportHeadlines: the Report's identity fields and headline metrics
// are the per-topology detail's, for each simulated topology.
func TestReportHeadlines(t *testing.T) {
	run := func(sc Scenario) *Report {
		t.Helper()
		sc.Parking.Mode = sim.ParkEdge
		sc.Opts = RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6}
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scenario != sc.Name || rep.Topology != sc.Topology.Kind() || rep.Mode != "edge" {
			t.Errorf("%s: identity fields: %+v", sc.Name, rep)
		}
		return rep
	}
	tb := run(Scenario{Name: "tb", Topology: Testbed{}, Traffic: Traffic{SendBps: 4e9}, Chain: fwNATChain})
	if tb.Testbed == nil || tb.GoodputGbps != tb.Testbed.GoodputGbps || tb.Healthy != tb.Testbed.Healthy ||
		tb.Delivered != tb.Testbed.Delivered || len(tb.LatencyCDF) == 0 {
		t.Errorf("testbed headline metrics diverge from the detail: %+v", tb)
	}
	ms := run(Scenario{Name: "ms", Topology: MultiServer{Servers: 2}, Traffic: Traffic{SendBps: 2e9}})
	if ms.MultiServer == nil || len(ms.MultiServer.PerServer) != 2 || ms.Delivered == 0 ||
		ms.GoodputGbps != ms.MultiServer.PerServer[0].GoodputGbps+ms.MultiServer.PerServer[1].GoodputGbps {
		t.Errorf("multiserver headline metrics diverge from the detail: %+v", ms)
	}
	ls := run(Scenario{Name: "ls", Topology: LeafSpine{}, Traffic: Traffic{SendBps: 3e9}})
	if ls.Fabric == nil || ls.GoodputGbps != ls.Fabric.GoodputGbps || ls.Healthy != ls.Fabric.Healthy || ls.Delivered == 0 {
		t.Errorf("leafspine headline metrics diverge from the detail: %+v", ls)
	}
}

// TestMultiServerReportsParkingCounters: a multi-server run fills every
// server's parking counters, and Report.Premature — the Fig. 14 criterion
// — is their sum. A 64-slot table with EXP=1 wraps long before headers
// return through a saturated server's RX queues, so every server must
// evict prematurely.
func TestMultiServerReportsParkingCounters(t *testing.T) {
	slow := sim.DefaultServerModel()
	slow.RxFixedNs = 2500 // 8 cores x 0.4 Mpps: far below the 3.5 Mpps offered
	rep, err := Run(context.Background(), Scenario{
		Topology: MultiServer{Servers: 4},
		Parking:  Parking{Mode: sim.ParkEdge, Slots: 64, MaxExpiry: 1},
		Traffic:  Traffic{SendBps: 11e9},
		Server:   slow,
		Opts:     RunOptions{Seed: 1, WarmupNs: 1e6, MeasureNs: 4e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i, r := range rep.MultiServer.PerServer {
		if r.Splits == 0 || r.Merges == 0 || r.Premature == 0 {
			t.Errorf("server %d: splits=%d merges=%d premature=%d, want all non-zero", i+1, r.Splits, r.Merges, r.Premature)
		}
		sum += r.Premature
	}
	if rep.Premature != sum {
		t.Errorf("Report.Premature = %d, want the per-server sum %d", rep.Premature, sum)
	}
}
