// Package live is the socket backend of the fabric graph (one graph, three
// backends: sim.Graph is realised by the event simulator, by this package,
// and by the reference walk). It runs the PayloadPark dataplane as a real
// fabric: every switch, NF server, traffic source and sink of the graph is
// a live endpoint exchanging Ethernet-over-UDP frames through loopback
// sockets, the deployable-system shape of the paper's hardware testbed.
// Ports, MACs, routes, program placement, seeds and cables are the
// graph's — sim/graph.go holds the one table — and every switch is loaded
// by Graph.Realise; this package adds only sockets. A switch node binds
// one socket per pipe with a cabled port and drives each from its own
// worker goroutine — per-pipe parallelism with no shared stateful memory,
// the Tofino discipline core.Switch's one-worker-per-pipe rule states —
// reading each burst as one datagram, driving it through the zero-alloc
// core.FrameBurst path, and writing the emissions back out packed into a
// datagram per peer (wire.BurstReader, wire.BatchSender).
//
// Every run has one sender per flow, which keeps at most Window of the
// flow's frames without a fate in flight and then waits for the flow's
// books to balance: sent = delivered + dropped by the NF + ended in a
// switch, a notified frame ending where its notification is consumed.
// The same graph can be walked in process (ReferenceRun, over sim.Walker)
// with the identical core.Switch pipelines and, at every NF endpoint, the
// same nf.Server the socket daemon hosts (its HandleFrame is the one NF
// byte path); comparing the two counter-for-counter is the sim-vs-live
// parity gate, which holds at a Window of at most Parking.Slots. A
// controller drives the socket fabric as it drives the simulator:
// ctrl.Controller calls the one sim.Plant directly, from a wall-clock
// ticker, and the plant applies each telemetry read and push under the
// owning node's quiesce barrier — workers park between bursts, the call
// lands, workers resume.
//
// A run is described by Topology (declared, defaulted and validated
// here) plus the simulator's own sim.Sections, resolved with the live
// defaults.
package live

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/sim"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Topology is the live section of a run's description: the socket
// fabric's shape and each flow's window. The scenario package re-exports it
// as scenario.Live; the rest of the description — Parking, Traffic,
// Control, Opts — arrives as the same sim.Sections the simulated runners
// take, so one scenario file runs simulated or live by swapping the
// topology envelope. It is declared here, defaulted by Resolve and
// validated by Validate.
//
// Geometry "chain" is the single-switch graph (generator -> switch -> NF
// -> switch -> sink, one group and one parking program per pipe); "LxS"
// (e.g. "4x2") is the park-at-edge leaf-spine graph. Every run sends each
// flow's frames windowed by the flow's books; at a Window of at most
// Parking.Slots its counters match ReferenceRun exactly, and a wider one
// measures wire rate. Parking.ExplicitDrop (the §6.2.4 NF notification
// path) is chain-only: a notification can only reach the parking switch
// when the NF hangs off its merge pipe.
type Topology struct {
	// Geometry is "chain" (default) or an "LxS" leaf-spine such as "4x2"
	// (L leaves, S spines, park-at-edge).
	Geometry string `json:"geometry,omitempty"`
	// Pipes is how many switch pipes the chain geometry drives, each with
	// its own generator/NF pair and worker socket (1..4, default 1).
	// Ignored by leaf-spine geometries.
	Pipes int `json:"pipes,omitempty"`
	// Frames is the per-generator frame budget (default 20000; 4000 with
	// Opts.Quick). It sets the run's length, not its memory: each frame is
	// serialized as it is sent.
	Frames int `json:"frames,omitempty"`
	// Window caps a generator's frames without a fate yet (default 512),
	// keeping the offered load inside kernel socket buffers. A window of
	// at most Parking.Slots re-claims no slot before its header returns,
	// so the run's counters match ReferenceRun.
	Window int `json:"window,omitempty"`
	// DropFraction blacklists roughly this fraction of source IPs at the
	// NF (a stateless firewall ahead of the MAC swap; 0 disables the
	// stage), exercising eviction and explicit-drop paths.
	DropFraction float64 `json:"drop_fraction,omitempty"`
}

// Wiring binds one live run to its caller; none of it describes the run.
// A caller bounds a run below runTimeout through the ctx it passes Run.
type Wiring struct {
	// Metrics, when non-nil, registers the fabric's live counters and
	// socket-batching histograms (per-node rx/errors, per-generator
	// sent/received, burst and batch size distributions) for snapshot
	// or scrape. Only atomically maintained state is exposed, so a
	// scrape mid-run is race-free.
	Metrics *obs.Registry
}

// runTimeout bounds every live run: a fabric that has not balanced its
// books by then has lost frames for good.
const runTimeout = 60 * time.Second

// Resolve fills the topology's and the sections' zero fields; socket runs
// size their parking tables and flow pools far below the simulator's.
func (t *Topology) Resolve(s *sim.Sections) {
	if t.Geometry == "" {
		t.Geometry = "chain"
	}
	if t.Pipes == 0 {
		t.Pipes = 1
	}
	if t.Frames == 0 {
		t.Frames = 20000
		if s.Opts.Quick {
			t.Frames = 4000
		}
	}
	if t.Window == 0 {
		t.Window = 512
	}
	s.Resolve(64, trafficgen.Datacenter{}, 256)
}

// validGeometries is the guidance every geometry error carries.
const validGeometries = `valid geometries: "chain" (with pipes 1..4) or "LxS" leaf-spine such as "4x2" (2..16 leaves, 1..13 spines, adjacent leaves on distinct spines: leaf k and leaf k+1 must differ mod S)`

// parseGeometry validates the Geometry/Pipes combination and returns the
// leaf-spine size (0x0 for the chain). The leaf-spine rules are the
// simulated fabric's (sim.CheckLeafSpine): the socket fabric realises the
// same graph and always pins a merge port.
func (t Topology) parseGeometry() (leaves, spines int, err error) {
	if t.Geometry == "chain" {
		if t.Pipes < 1 || t.Pipes > core.NumPipes {
			return 0, 0, fmt.Errorf("live: chain geometry supports 1..%d pipes, got %d; %s", core.NumPipes, t.Pipes, validGeometries)
		}
		return 0, 0, nil
	}
	if l, s, ok := strings.Cut(t.Geometry, "x"); ok {
		leaves, err1 := strconv.Atoi(l)
		spines, err2 := strconv.Atoi(s)
		if err1 == nil && err2 == nil {
			if err := sim.CheckLeafSpine(leaves, spines, true); err != nil {
				return 0, 0, fmt.Errorf("live: leaf-spine %v; %s", err, validGeometries)
			}
			return leaves, spines, nil
		}
	}
	return 0, 0, fmt.Errorf("live: unknown geometry %q; %s", t.Geometry, validGeometries)
}

// Validate reports the first rule a resolved live run breaks: first the
// sections the socket fabric does not run, then its geometry and counts.
// It holds every rule of a live run — live.Run and ReferenceRun enforce
// them whoever calls.
func (t Topology) Validate(s sim.Sections) error {
	switch {
	case s.Chain != nil:
		return errors.New("live: custom Chain unsupported (the socket NF pins firewall+MAC-swap)")
	case s.Traffic.Source != nil:
		return errors.New("live: Traffic.Source unsupported")
	case s.Parking.Mode == sim.ParkEveryHop:
		return errors.New("live: ParkEveryHop unsupported (the socket fabric parks at the edge)")
	case s.Parking.Recirculate || s.Parking.BoundaryOffset != 0:
		return errors.New("live: Recirculate/BoundaryOffset unsupported")
	case s.Program.Enabled() || s.Program.Spec != nil:
		return errors.New("live: table programs unsupported (use Testbed or LeafSpine)")
	case s.Control.ECMP:
		return errors.New("live: ECMP unsupported (the socket fabric routes statically)")
	}
	leaves, _, err := t.parseGeometry()
	if err != nil {
		return err
	}
	if s.Parking.ExplicitDrop && leaves != 0 {
		return fmt.Errorf("live: explicit drop needs the NF on the parking switch's merge pipe; only the chain geometry provides that")
	}
	if err := s.Control.Validate(s.Parking.Enabled()); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if err := s.Parking.Validate(); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if err := s.Traffic.Validate(); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if !(t.DropFraction >= 0 && t.DropFraction < 1) { // false for NaN too
		return fmt.Errorf("live: drop_fraction = %v outside [0, 1)", t.DropFraction)
	}
	// A run too long to finish and a window nothing can enter are bounded
	// here rather than found out by the deadline.
	if t.Frames < 1 || t.Frames > maxFrames {
		return fmt.Errorf("live: frames = %d outside [1, %d]", t.Frames, maxFrames)
	}
	if t.Window < 1 || t.Window > maxWindow {
		return fmt.Errorf("live: window = %d outside [1, %d]", t.Window, maxWindow)
	}
	return nil
}

// Upper bounds of the resolved topology's counts. Frames are serialized
// as they are sent, so the frame bound is about run length, not memory: a
// million frames per generator is far past what a window-1 run replays
// within runTimeout. A window beyond 64 Ki frames overruns any loopback
// socket buffer.
const (
	maxFrames = 1 << 20
	maxWindow = 1 << 16
)

// CounterSet is the dataplane counter snapshot the parity gate compares:
// the program counters of §5 plus switch-level packet and drop
// accounting, merged across the fabric.
type CounterSet struct {
	Rx uint64 `json:"rx"`
	Tx uint64 `json:"tx"`
	core.Counters
	Drops map[string]uint64 `json:"drops,omitempty"`
}

// Equal reports counter-for-counter equality, drop reasons included (add
// creates Drops with its first reason, so an empty set is always nil).
func (a *CounterSet) Equal(b *CounterSet) bool { return reflect.DeepEqual(a, b) }

// Result is one run's outcome, on sockets or in the reference replay.
type Result struct {
	Geometry string `json:"geometry"`
	Parking  bool   `json:"parking"`

	Sent           uint64 `json:"sent"`
	SentBytes      uint64 `json:"sent_bytes"` // the generators' frames, Ethernet header to payload end
	Delivered      uint64 `json:"delivered"`
	NFReceived     uint64 `json:"nf_received"` // frames the NF daemons received
	NFDropped      uint64 `json:"nf_dropped"`
	NFNotified     uint64 `json:"nf_notified"`
	DeliveredBytes uint64 `json:"delivered_bytes"`

	ElapsedNs int64   `json:"elapsed_ns"`
	PPS       float64 `json:"pps"`
	Gbps      float64 `json:"gbps"`

	Counters CounterSet `json:"counters"`

	// Control is the controller's report — ticks and decision timeline —
	// when the run had a controller (nil without Control).
	Control *ctrl.Report `json:"control,omitempty"`
}

// Parity compares a live run against its reference replay and returns a
// descriptive error on the first divergence — the sim-vs-live gate. The
// two agree when the live run's Window is at most its Parking.Slots: no
// slot is then re-claimed before its header returns, so every
// interleaving leaves the table as the one-frame-at-a-time walk does.
func Parity(live, ref *Result) error {
	if live.Sent != ref.Sent {
		return fmt.Errorf("live sent %d frames, reference %d", live.Sent, ref.Sent)
	}
	if live.Delivered != ref.Delivered {
		return fmt.Errorf("delivered diverges: live %d, reference %d", live.Delivered, ref.Delivered)
	}
	if live.NFDropped != ref.NFDropped || live.NFNotified != ref.NFNotified {
		return fmt.Errorf("NF accounting diverges: live dropped=%d notified=%d, reference dropped=%d notified=%d",
			live.NFDropped, live.NFNotified, ref.NFDropped, ref.NFNotified)
	}
	if live.DeliveredBytes != ref.DeliveredBytes {
		return fmt.Errorf("delivered bytes diverge: live %d, reference %d", live.DeliveredBytes, ref.DeliveredBytes)
	}
	if !live.Counters.Equal(&ref.Counters) {
		return fmt.Errorf("dataplane counters diverge:\n  live: %+v\n  ref:  %+v", live.Counters, ref.Counters)
	}
	return nil
}
