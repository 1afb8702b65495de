package live

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// parking is the tests' parking section: a tiny edge table with the
// conservative expiry, so NF drops orphan payloads and evictions happen.
func parking(slots int, explicitDrop bool) sim.Parking {
	return sim.Parking{Mode: sim.ParkEdge, Slots: slots, MaxExpiry: 2, ExplicitDrop: explicitDrop}
}

// runPair runs the live fabric and the in-process reference over the
// identical description and requires exact counter parity.
func runPair(t *testing.T, topo Topology, sec sim.Sections) (*Result, *Result) {
	t.Helper()
	live, err := Run(context.Background(), topo, sec, Wiring{})
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	ref, err := ReferenceRun(topo, sec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if err := Parity(live, ref); err != nil {
		t.Fatalf("parity: %v\n live %+v\n ref  %+v", err, live.Counters, ref.Counters)
	}
	return live, ref
}

func TestParityChain(t *testing.T) {
	live, _ := runPair(t,
		Topology{Geometry: "chain", Frames: 96, Window: 8, DropFraction: 0.25},
		sim.Sections{Parking: parking(8, false), Opts: sim.RunOptions{Seed: 7}})
	if live.Counters.Splits == 0 || live.Counters.Merges == 0 {
		t.Fatalf("workload exercised no parking: %+v", live.Counters)
	}
	if live.NFDropped == 0 {
		t.Fatalf("drop fraction produced no NF drops: %+v", live)
	}
	if live.Counters.Evictions == 0 {
		t.Logf("note: no evictions at this seed: %+v", live.Counters)
	}
}

func TestParityChainExplicitDrop(t *testing.T) {
	live, _ := runPair(t,
		Topology{Geometry: "chain", Frames: 96, Window: 8, DropFraction: 0.25},
		sim.Sections{Parking: parking(8, true), Opts: sim.RunOptions{Seed: 11}})
	if live.NFNotified == 0 {
		t.Fatalf("explicit drop produced no notifications: %+v", live)
	}
	if live.Counters.ExplicitDrops == 0 {
		t.Fatalf("no explicit drops landed at the switch: %+v", live.Counters)
	}
}

func TestParityChainTwoPipes(t *testing.T) {
	live, _ := runPair(t,
		Topology{Geometry: "chain", Pipes: 2, Frames: 48, Window: 8, DropFraction: 0.2},
		sim.Sections{Parking: parking(8, false), Opts: sim.RunOptions{Seed: 3}})
	if live.Counters.Splits == 0 {
		t.Fatalf("no splits across two pipes: %+v", live.Counters)
	}
}

func TestParityLeafSpine(t *testing.T) {
	live, _ := runPair(t,
		Topology{Geometry: "4x2", Frames: 32, Window: 8, DropFraction: 0.2},
		sim.Sections{Parking: parking(8, false), Opts: sim.RunOptions{Seed: 5}})
	if live.Counters.Splits == 0 || live.Counters.Merges == 0 {
		t.Fatalf("leaf-spine exercised no parking: %+v", live.Counters)
	}
	if live.Delivered == 0 {
		t.Fatalf("nothing delivered to sinks: %+v", live)
	}
}

// TestParityWhileDropsOutrunHeaders: on a leaf-spine a header returns
// over two more hops after its NF, so a later frame's drop there is known
// to the sender before the header is back. Were the drop counted at once,
// the window would let in a frame re-claiming the header's slot — an
// occupied skip or an eviction the reference walk never makes, in most
// runs of this size. A drop counts once the responses ahead of it are
// back, and every seed matches.
func TestParityWhileDropsOutrunHeaders(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runPair(t,
			Topology{Geometry: "6x3", Frames: 200, Window: 8, DropFraction: 0.5},
			sim.Sections{Parking: parking(8, false), Opts: sim.RunOptions{Seed: seed}})
	}
}

func TestParityBaselineChain(t *testing.T) {
	live, _ := runPair(t,
		Topology{Geometry: "chain", Frames: 32, Window: 8},
		sim.Sections{Opts: sim.RunOptions{Seed: 2}})
	if live.Counters.Splits != 0 {
		t.Fatalf("baseline run split packets: %+v", live.Counters)
	}
	if live.Delivered != live.Sent {
		t.Fatalf("baseline lost frames: %+v", live)
	}
}

func TestThroughputChainDelivers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	live, err := Run(ctx,
		Topology{Geometry: "chain", Frames: 2000, Window: 128},
		sim.Sections{Parking: parking(32, false), Opts: sim.RunOptions{Seed: 1}},
		Wiring{})
	if err != nil {
		t.Fatal(err)
	}
	if live.Sent != 2000 {
		t.Fatalf("sent %d of 2000", live.Sent)
	}
	if live.Delivered == 0 || live.PPS <= 0 || live.Gbps <= 0 {
		t.Fatalf("no throughput measured: %+v", live)
	}
}

// TestThroughputBurstsAreBatched: with a window of frames in flight, a
// worker's read returns several frames, not one.
func TestThroughputBurstsAreBatched(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := Run(ctx,
		Topology{Geometry: "chain", Frames: 4000, Window: 128},
		sim.Sections{Parking: parking(64, false), Opts: sim.RunOptions{Seed: 1}},
		Wiring{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var frames, bursts uint64
	for _, h := range reg.Snapshot().Histograms {
		if strings.HasPrefix(h.Name, "pp_live_rx_burst_frames") {
			frames, bursts = frames+h.Sum, bursts+h.Count
		}
	}
	if bursts == 0 || float64(frames)/float64(bursts) < 2 {
		t.Fatalf("%d frames in %d receive bursts: the workers read one frame at a time", frames, bursts)
	}
}

// TestRunBytesPerFrameAlloc: a live run serializes each frame as it sends
// it, so its heap grows with its window, not its workload. The heap bytes
// a run allocates per extra frame — the TotalAlloc difference between an
// N-frame and a 4N-frame chain run, over the 3N frames between them — stay
// a few bytes at a window of 128 and a few hundred at a window of 1, where
// every frame waits out its own round trip; a workload serialized up
// front would cost a frame's bytes and more.
func TestRunBytesPerFrameAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so allocation counts are not the program's")
	}
	sec := sim.Sections{Parking: sim.Parking{Mode: sim.ParkEdge, Slots: 1024, MaxExpiry: 1}, Opts: sim.RunOptions{Seed: 3}}
	for _, tc := range []struct {
		name string
		topo Topology
		max  float64
	}{
		{"window-128", Topology{Frames: 2000, Window: 128}, 64},
		{"window-1", Topology{Frames: 200, Window: 1}, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap := func(frames int) uint64 {
				topo := tc.topo
				topo.Frames = frames
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := Run(context.Background(), topo, sec, Wiring{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if res.Sent != uint64(frames) {
					t.Fatalf("sent %d of %d frames", res.Sent, frames)
				}
				return after.TotalAlloc - before.TotalAlloc
			}
			n := tc.topo.Frames
			heap(n) // warm the runtime's and the net package's one-time state
			small, large := heap(n), heap(4*n)
			per := (float64(large) - float64(small)) / float64(3*n)
			t.Logf("%s: %d B for %d frames, %d B for %d: %.1f B per extra frame", tc.name, small, n, large, 4*n, per)
			if per > tc.max {
				t.Errorf("%s run allocates %.1f B per extra frame, want <= %.0f", tc.name, per, tc.max)
			}
		})
	}
}

// TestThroughputSettlesWhenBooksBalance: a throughput run returns as soon
// as its books balance, the one rule that ends a live wait, so a one-frame
// run takes well under 20 ms.
func TestThroughputSettlesWhenBooksBalance(t *testing.T) {
	best := time.Hour
	for try := 0; try < 3; try++ { // best of three: a loaded host can stall a wake-up
		live, err := Run(context.Background(), Topology{Geometry: "chain", Frames: 1},
			sim.Sections{Parking: parking(32, false), Opts: sim.RunOptions{Seed: 1}}, Wiring{})
		if err != nil {
			t.Fatal(err)
		}
		if live.Sent != 1 || live.Delivered+live.NFDropped != 1 {
			t.Fatalf("one frame not accounted for: %+v", live)
		}
		best = min(best, time.Duration(live.ElapsedNs))
	}
	if best >= 20*time.Millisecond {
		t.Fatalf("a one-frame run took %v, want < 20ms", best)
	}
}

// bestOf3 runs topo three times, checking each result when check is set,
// and returns the shortest ElapsedNs: a loaded host can stall a wake-up.
// sec defaults to a 32-slot edge table, seed 1. The bounds are the
// program's, so the race detector's slowdown skips the test.
func bestOf3(t *testing.T, topo Topology, sec *sim.Sections, check func(*Result)) time.Duration {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector slows every frame several-fold, so wall-clock bounds are not the program's")
	}
	if sec == nil {
		sec = &sim.Sections{Parking: parking(32, false), Opts: sim.RunOptions{Seed: 1}}
	}
	best := time.Hour
	for try := 0; try < 3; try++ {
		live, err := Run(context.Background(), topo, *sec, Wiring{})
		if err != nil {
			t.Fatal(err)
		}
		if live.Sent != uint64(topo.Frames) {
			t.Fatalf("sent %d of %d frames", live.Sent, topo.Frames)
		}
		if check != nil {
			check(live)
		}
		best = min(best, time.Duration(live.ElapsedNs))
	}
	t.Logf("best of three: %v", best)
	return best
}

// TestThroughputSettlesWhenFramesDie: frames that die to premature
// eviction are booked at the switch that dropped them, so a run that
// loses some still ends once the last frame has its fate. A chain run of
// 2,000 frames through an 8-slot table takes well under 20 ms (40–46 ms
// when a write-off timer and a quiet timer waited out the dead frames).
func TestThroughputSettlesWhenFramesDie(t *testing.T) {
	sec := sim.Sections{Parking: sim.Parking{Mode: sim.ParkEdge, Slots: 8, MaxExpiry: 1}, Opts: sim.RunOptions{Seed: 1}}
	best := bestOf3(t, Topology{Geometry: "chain", Frames: 2000, Window: 64}, &sec, func(live *Result) {
		died := live.Sent - live.Delivered - live.NFDropped - live.NFNotified
		if evicted := live.Counters.Drops[core.DropPrematureEviction]; died != evicted || died == 0 {
			t.Fatalf("%d frames unaccounted at the endpoints, %d premature evictions: want equal and above 0", died, evicted)
		}
	})
	if best >= 20*time.Millisecond {
		t.Fatalf("a 2,000-frame run through an 8-slot table took %v, want < 20ms", best)
	}
}

// TestBlastWakesOnDelivery: a full window waits on its flow's progress,
// not on a poll. At a window of 1 every frame waits out its own round
// trip, and a 256-frame chain still takes well under 100 ms (310–340 ms
// when every check slept 200 µs); a window of 8 — a quarter datagram —
// moves 2,000 frames in under 120 ms (240–263 ms when a full window slept
// 100 µs per check).
func TestBlastWakesOnDelivery(t *testing.T) {
	for _, tc := range []struct {
		frames, window int
		bound          time.Duration
	}{{256, 1, 100 * time.Millisecond}, {2000, 8, 120 * time.Millisecond}} {
		if best := bestOf3(t, Topology{Geometry: "chain", Frames: tc.frames, Window: tc.window}, nil, nil); best >= tc.bound {
			t.Errorf("a window-%d %d-frame run took %v, want < %v", tc.window, tc.frames, best, tc.bound)
		}
	}
}

// TestRunLeavesNoGoroutine: once Run returns, every goroutine it started
// has exited — switch workers, NF daemons, the generators' receive loops
// and socket watches, the senders and the controller — at a window of 1
// and a wide one, and with a controller. A goroutine still on its way out
// when Run returns shows in some rounds, not all, so each case runs five
// times. One that is runnable may be past its last step (the
// WaitGroup.Done Run waited on) and gets a few yields; one still blocked
// on anything fails at once.
func TestRunLeavesNoGoroutine(t *testing.T) {
	sec := sim.Sections{Parking: parking(16, false), Opts: sim.RunOptions{Seed: 2}}
	ctl := sec
	ctl.Control = ctrl.Config{Adaptive: true}
	for _, tc := range []struct {
		name string
		topo Topology
		sec  sim.Sections
	}{
		{"window-1", Topology{Geometry: "4x2", Frames: 8, Window: 1}, sec},
		{"window-64", Topology{Pipes: 2, Frames: 500, Window: 64}, sec},
		{"controlled", Topology{Frames: 500, Window: 64}, ctl},
	} {
		for round := 0; round < 5; round++ {
			if _, err := Run(context.Background(), tc.topo, tc.sec, Wiring{}); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for yields := 0; ; yields++ {
				left := ""
				buf := make([]byte, 1<<20)
				for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
					if strings.Contains(g, "payloadpark/internal/") && !strings.Contains(g, "live.TestRunLeavesNoGoroutine") {
						left = g
						if !strings.Contains(g, " [runnable]:") {
							break
						}
					}
				}
				if left == "" {
					break
				}
				if !strings.Contains(left, " [runnable]:") || yields == 100 {
					t.Fatalf("%s, round %d: a goroutine outlived Run:\n%s", tc.name, round, left)
				}
				runtime.Gosched()
			}
		}
	}
}

// TestFlowsOwnTheirMACs: a frame that ends inside a switch is booked on
// the flow its Ethernet addresses name, so no two flows of any live
// geometry may share a generator or NF MAC, and the explicit-drop
// notification each flow's NF server returns — which ends in the switch
// that consumes it — must name its own flow.
func TestFlowsOwnTheirMACs(t *testing.T) {
	for _, topo := range []Topology{
		{Geometry: "chain", Pipes: core.NumPipes}, {Geometry: "4x2"}, {Geometry: "6x3"}, {Geometry: "16x13"},
	} {
		f, err := build(topo, sim.Sections{Parking: parking(16, false)})
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[packet.MAC]int)
		for i, fl := range f.g.Flows {
			for _, mac := range []packet.MAC{fl.Traffic.SrcMAC, fl.Traffic.DstMAC} {
				if j, ok := owner[mac]; ok {
					t.Errorf("%s: flows %d and %d share MAC %v", topo.Geometry, j, i, mac)
				}
				owner[mac] = i
			}
		}
		if len(f.g.Flows) < 2 {
			t.Errorf("%s: %d flows, want several", topo.Geometry, len(f.g.Flows))
		}
		// Each flow's server, by the rule that builds every NF endpoint,
		// with explicit drops on and a firewall that drops everything; a
		// leaf-spine cannot deliver the notification, but its MACs are
		// checked all the same.
		sec := f.sec
		sec.Parking.ExplicitDrop = true
		sec.Chain = func() *nf.Chain { return nf.NewChain(nf.NewFirewall([]nf.FirewallRule{{Bits: 0}}), nf.MACSwap{}) }
		for i := range f.g.Flows {
			fl := &f.g.Flows[i]
			pkt := trafficgen.New(fl.Traffic).Next()
			pkt.SetPP(packet.PPHeader{Enabled: true})
			notice, res, err := nf.NewServer(sec.ServerConfig(fl)).HandleFrame(pkt.Serialize(), nil)
			if err != nil || !res.Notification {
				t.Fatalf("%s flow %d: no notification (%v)", topo.Geometry, i, err)
			}
			if j, ok := f.flowOf(notice); !ok || j != i {
				t.Errorf("%s flow %d: its notification is booked on flow %d (found %t)", topo.Geometry, i, j, ok)
			}
		}
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	validate := func(topo Topology, sec sim.Sections) error {
		topo.Resolve(&sec)
		return topo.Validate(sec)
	}
	cases := []struct {
		topo Topology
		park sim.Parking
		want string
	}{
		{Topology{Geometry: "ring"}, sim.Parking{}, "unknown geometry"},
		{Topology{Geometry: "3x2"}, sim.Parking{}, "merge port"},
		{Topology{Geometry: "4x2"}, sim.Parking{ExplicitDrop: true}, "explicit drop"},
		{Topology{Geometry: "chain", Pipes: 99}, sim.Parking{}, "pipes"},
		{Topology{Geometry: "chain"}, sim.Parking{Slots: -1}, "slots"},
		{Topology{Geometry: "chain", DropFraction: 1.5}, sim.Parking{}, "drop_fraction"},
		{Topology{Geometry: "chain", DropFraction: math.NaN()}, sim.Parking{}, "drop_fraction"},
	}
	for _, tc := range cases {
		err := validate(tc.topo, sim.Sections{Parking: tc.park})
		if err == nil {
			t.Errorf("%+v %+v accepted", tc.topo, tc.park)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
			t.Errorf("%+v %+v: error %q does not mention %q", tc.topo, tc.park, err, tc.want)
		}
	}
	// Errors must list the valid shapes so the CLI user can self-serve.
	if err := validate(Topology{Geometry: "ring"}, sim.Sections{}); err == nil || !strings.Contains(err.Error(), "chain") {
		t.Fatalf("geometry error does not list valid options: %v", err)
	}
}

// TestRulesHaveOneOwner: every rule naming a section the socket fabric
// does not run lives in Topology.Validate, so live.Run and ReferenceRun
// called directly reject the description with the text scenario.Run
// reports after its "scenario: " prefix. The reference replay used to run
// a table program, recirculation and every-hop striping as plain parking.
func TestRulesHaveOneOwner(t *testing.T) {
	for _, tc := range []struct {
		set  func(*sim.Sections)
		want string
	}{
		{func(s *sim.Sections) { s.Chain = func() *nf.Chain { return nf.NewChain(nf.MACSwap{}) } }, "custom Chain unsupported (the socket NF pins firewall+MAC-swap)"},
		{func(s *sim.Sections) { s.Traffic.Source = func() trafficgen.Source { return nil } }, "Traffic.Source unsupported"},
		{func(s *sim.Sections) { s.Parking.Mode = sim.ParkEveryHop }, "ParkEveryHop unsupported (the socket fabric parks at the edge)"},
		{func(s *sim.Sections) { s.Parking.Recirculate = true }, "Recirculate/BoundaryOffset unsupported"},
		{func(s *sim.Sections) { s.Parking.BoundaryOffset = 32 }, "Recirculate/BoundaryOffset unsupported"},
		{func(s *sim.Sections) { s.Program.Kind = "compress" }, "table programs unsupported (use Testbed or LeafSpine)"},
		{func(s *sim.Sections) { s.Control.ECMP = true }, "ECMP unsupported (the socket fabric routes statically)"},
	} {
		s := sim.Sections{Parking: parking(16, false)}
		tc.set(&s)
		topo := Topology{Frames: 4}
		_, runErr := Run(context.Background(), topo, s, Wiring{})
		_, refErr := ReferenceRun(topo, s)
		for via, err := range map[string]error{"Run": runErr, "ReferenceRun": refErr} {
			if want := "live: " + tc.want; err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", via, err, want)
			}
		}
	}
}

// TestResolveDefaults pins every default the live topology fills into
// zero-valued sections, and that a written value is left alone — in
// particular a written 8192-slot table, the simulator's default, stays
// 8192 here.
func TestResolveDefaults(t *testing.T) {
	for _, tc := range []struct {
		quick  bool
		frames int
	}{{false, 20000}, {true, 4000}} {
		var topo Topology
		sec := sim.Sections{Opts: sim.RunOptions{Quick: tc.quick}}
		topo.Resolve(&sec)
		want := Topology{Geometry: "chain", Pipes: 1, Frames: tc.frames, Window: 512}
		if topo != want {
			t.Errorf("quick=%t: resolved to %+v, want %+v", tc.quick, topo, want)
		}
		if sec.Parking.Slots != 64 || sec.Parking.MaxExpiry != 1 || sec.Traffic.Flows != 256 ||
			sec.Traffic.Dist != (trafficgen.Datacenter{}) {
			t.Errorf("sections resolved to %+v %+v, want 64 slots, expiry 1, 256 flows, the datacenter mix", sec.Parking, sec.Traffic)
		}
	}
	topo := Topology{Geometry: "4x2", Frames: 9, Window: 3}
	sec := sim.Sections{Parking: sim.Parking{Slots: 8192, MaxExpiry: 2}, Traffic: sim.Traffic{FixedSize: 300, Flows: 5}}
	topo.Resolve(&sec)
	if topo.Geometry != "4x2" || topo.Frames != 9 || topo.Window != 3 {
		t.Errorf("written topology moved: %+v", topo)
	}
	if sec.Parking.Slots != 8192 || sec.Parking.MaxExpiry != 2 || sec.Traffic.Flows != 5 || sec.Traffic.Dist != trafficgen.Fixed(300) {
		t.Errorf("written sections moved: %+v %+v", sec.Parking, sec.Traffic)
	}
}

// TestOnePlantBothHooks: the controller's plant is the same code on the
// simulator and on sockets; only the "run this while the switch is quiet"
// hook differs. Over a two-pipe chain and a 4x2 every-hop graph — each
// realised twice and loaded with the same orphaned payloads — the direct
// hook and the worker-parking hook must read identical telemetry and
// leave identical programs behind after the same pushes: every program's
// expiry retuned, split claims gated on exactly the transit placements.
func TestOnePlantBothHooks(t *testing.T) {
	sec := sim.Sections{Parking: parking(16, false), Opts: sim.RunOptions{Seed: 4}}
	(&Topology{}).Resolve(&sec)
	hop := sec
	hop.Parking.Mode = sim.ParkEveryHop
	for _, tc := range []struct {
		name      string
		g         *sim.Graph
		demotable bool
	}{
		{"chain", sim.SingleSwitchGraph("sw0", sec, []rmt.PortID{0, core.PortsPerPipe}, true), false},
		{"4x2-everyhop", sim.LeafSpineGraph(4, 2, hop), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plants [2]*sim.Plant
			var sides [2][]*core.Switch
			for side := range plants {
				sws, err := tc.g.RealiseAll()
				if err != nil {
					t.Fatal(err)
				}
				// A quarter of the frames die at the NF's firewall, so their
				// payloads stay parked: occupancy the telemetry must report.
				w := sim.NewWalker(tc.g, sws)
				f := &fabric{topo: Topology{DropFraction: 0.25}, sec: sec}
				var frame, resp []byte
				for i := range tc.g.Flows {
					srv := f.newServer(&tc.g.Flows[i])
					tg := trafficgen.New(tc.g.Flows[i].Traffic)
					for range 24 {
						frame = tg.AppendFrame(frame[:0])
						_, err := w.Send(i, frame, func(_ *sim.Endpoint, frame []byte) []byte {
							var res nf.Result
							if resp, res, _ = srv.HandleFrame(frame, resp[:0]); res.Out == nil {
								return nil
							}
							return resp
						})
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				sides[side] = sws
				quiet := func(_ int, fn func()) { fn() }
				if side == 1 {
					peers := tc.g.Peers()
					nodes := make([]*switchNode, len(sws))
					for i, sw := range sws {
						if nodes[i], err = newSwitchNode(tc.g.Switches[i].Name, sw, peers[i], nil); err != nil {
							t.Fatal(err)
						}
						nodes[i].start()
						defer nodes[i].close()
					}
					quiet = func(sw int, fn func()) { nodes[sw].quiesce(fn) }
				}
				plants[side] = sim.NewPlant(tc.g, sws, quiet, nil)
			}

			var telem [2]ctrl.Telemetry
			for side, p := range plants {
				p.ReadTelemetry(&telem[side])
			}
			if !reflect.DeepEqual(telem[0], telem[1]) {
				t.Fatalf("telemetry differs by hook:\n direct   %+v\n quiesced %+v", telem[0], telem[1])
			}
			occupied := 0
			for i, st := range telem[0].Switches {
				gs := tc.g.Switches[i]
				if st.Name != gs.Name || st.Slots != 16*len(gs.Park) || st.Demotable != (tc.demotable && len(gs.Park) > 0) || st.Premature != 0 {
					t.Errorf("switch %d telemetry %+v, want %s with %d slots, demotable=%t", i, st, gs.Name, 16*len(gs.Park), tc.demotable)
				}
				occupied += st.Occupancy
			}
			if occupied == 0 {
				t.Error("no payload left parked: the occupancy reading is vacuous")
			}

			for side, p := range plants {
				for _, gs := range tc.g.Switches {
					p.PushExpiry(gs.Name, 7)
					p.PushTransitSplit(gs.Name, false)
				}
				p.PushGroup("no-such-group", []string{"spine0"})
				p.ReadTelemetry(&telem[side]) // a quiet window after the pushes: their writes are visible below
			}
			for side, sws := range sides {
				for i, sw := range sws {
					for k, p := range sw.Programs() {
						want := uint32(1)
						if tc.g.Switches[i].Park[k].Transit {
							want = 0
						}
						if split, _ := p.Instance().Runtime(prog.RTSplitEnabled); p.MaxExpiry() != 7 || split != want {
							t.Errorf("side %d %s program %d: expiry %d split enabled %d, want 7 and %d",
								side, tc.g.Switches[i].Name, k, p.MaxExpiry(), split, want)
						}
					}
				}
			}
		})
	}
}

// TestCounterSetEqual: the parity gate's comparison sees every counter,
// the embedded park record's included, and every drop reason.
func TestCounterSetEqual(t *testing.T) {
	base := CounterSet{Counters: core.Counters{Splits: 3}, Drops: map[string]uint64{"premature eviction": 1}}
	same := base
	same.Drops = map[string]uint64{"premature eviction": 1}
	if !base.Equal(&same) {
		t.Fatal("equal sets compare unequal")
	}
	// Every counter leaf, the embedded record's fields included, and the drop map.
	var leaves [][]int
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		if k := f.Type.Kind(); k == reflect.Uint64 || k == reflect.Map {
			leaves = append(leaves, f.Index)
		}
	}
	if want := 3 + reflect.TypeOf(core.Counters{}).NumField(); len(leaves) != want {
		t.Fatalf("walked %d leaves, want %d (rx, tx, drops and the park record)", len(leaves), want)
	}
	for _, idx := range leaves {
		other := base
		other.Drops = map[string]uint64{"premature eviction": 1}
		if f := reflect.ValueOf(&other).Elem().FieldByIndex(idx); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + 1)
		} else {
			other.Drops["bad tag crc"] = 1
		}
		if base.Equal(&other) {
			t.Errorf("a change to %s went unseen", reflect.TypeOf(base).FieldByIndex(idx).Name)
		}
	}
}

// TestCounterSetJSONGolden pins the parity set's wire form, a distinct
// value in every key. The bytes were recorded when CounterSet still
// listed the park counters itself; embedding core.Counters keeps them.
func TestCounterSetJSONGolden(t *testing.T) {
	cs := CounterSet{
		Rx: 1, Tx: 2,
		Counters: core.Counters{
			Splits: 3, Merges: 4, Evictions: 5, PrematureEvictions: 6,
			ExplicitDrops: 7, OccupiedSkips: 8, SmallPayloadSkips: 9, DemotedSkips: 10,
			SplitDisabledFromNF: 11, BadTagDrops: 12, StaleExplicitDrops: 13,
		},
		Drops: map[string]uint64{"premature eviction": 14, "bad tag crc": 15},
	}
	b, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"rx":1,"tx":2,"splits":3,"merges":4,"evictions":5,"premature_evictions":6,` +
		`"explicit_drops":7,"occupied_skips":8,"small_payload_skips":9,"demoted_skips":10,` +
		`"split_disabled_from_nf":11,"bad_tag_drops":12,"stale_explicit_drops":13,` +
		`"drops":{"bad tag crc":15,"premature eviction":14}}`
	if string(b) != want {
		t.Errorf("CounterSet JSON drifted:\n got %s\nwant %s", b, want)
	}
}
