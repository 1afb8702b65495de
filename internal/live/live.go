// Package live runs the PayloadPark dataplane as a real fabric: every
// switch, NF server, traffic source and sink is a live endpoint
// exchanging Ethernet-over-UDP frames through loopback sockets, the
// deployable-system shape of the paper's hardware testbed. A switch node
// binds one socket per active pipe and drives each from its own worker
// goroutine — per-pipe parallelism with no shared stateful memory, the
// Tofino discipline core.Switch's one-worker-per-pipe rule states —
// reading recvmmsg-style bursts, draining them through the zero-alloc
// core.FrameBurst path, and writing the emissions back out through one
// batched sendmmsg flush.
//
// The same topology can be replayed in process (ReferenceRun) over the
// identical core.Switch pipelines and NF byte path, which is what the
// discrete-event simulator drives; comparing the two counter-for-counter
// is the sim-vs-live parity gate.
package live

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/obs"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// Config describes one live-fabric run.
type Config struct {
	// Geometry selects the fabric shape: "chain" (gen -> switch -> NF per
	// pipe, the paper's testbed) or an "LxS" leaf-spine such as "4x2"
	// (L leaves, S spines, park-at-edge).
	Geometry string `json:"geometry,omitempty"`
	// Pipes is how many switch pipes the chain geometry drives, each with
	// its own generator/NF pair and worker socket (1..4, default 1).
	// Ignored by leaf-spine geometries.
	Pipes int `json:"pipes,omitempty"`

	// Parking installs the PayloadPark program (false: baseline L2).
	Parking bool `json:"parking,omitempty"`
	// Slots/MaxExpiry configure each parking program (defaults 64 / 2).
	Slots     int `json:"slots,omitempty"`
	MaxExpiry int `json:"max_expiry,omitempty"`
	// ExplicitDrop enables the §6.2.4 NF notification path; chain
	// geometry only (a notification can only reach the parking switch
	// when the NF hangs off its merge pipe).
	ExplicitDrop bool `json:"explicit_drop,omitempty"`

	// DropFraction blacklists roughly this fraction of source IPs at the
	// NF firewall (0 disables the firewall stage).
	DropFraction float64 `json:"drop_fraction,omitempty"`

	// Frames is how many frames each generator sends (default 256
	// lockstep, 20000 throughput).
	Frames int `json:"frames,omitempty"`
	// Lockstep runs one frame end to end at a time — the deterministic
	// replay mode the parity check needs. Off, the run is open-loop
	// windowed at wire rate.
	Lockstep bool `json:"lockstep,omitempty"`
	// Window caps open-loop frames in flight per generator (default 512),
	// keeping the offered load inside kernel socket buffers.
	Window int `json:"window,omitempty"`
	// Burst is the per-worker receive-burst size (default wire.DefaultBurst).
	Burst int `json:"burst,omitempty"`

	// FrameSize fixes the generated frame size; 0 draws from the
	// datacenter mixture (small frames exercise the small-payload skip).
	FrameSize int `json:"frame_size,omitempty"`
	// Flows is the 5-tuple population per generator (default 256).
	Flows int `json:"flows,omitempty"`
	// Seed makes the workload reproducible across live and reference runs.
	Seed int64 `json:"seed,omitempty"`

	// Control, when non-nil, runs a ctrl.Controller against the fabric
	// through the socket-backed control plant (ctrl.ServePlant over TCP
	// loopback), ticking at Control.PeriodNs wall-clock.
	Control *ctrl.Config `json:"control,omitempty"`

	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration `json:"-"`

	// Metrics, when non-nil, registers the fabric's live counters and
	// socket-batching histograms (per-node rx/errors, per-generator
	// sent/received, burst and batch size distributions) for snapshot
	// or scrape. Only atomically maintained state is exposed, so a
	// scrape mid-run is race-free.
	Metrics *obs.Registry `json:"-"`
}

// FillDefaults resolves zero values to the stock configuration.
func (c *Config) FillDefaults() {
	if c.Geometry == "" {
		c.Geometry = "chain"
	}
	if c.Pipes == 0 {
		c.Pipes = 1
	}
	if c.Slots == 0 {
		c.Slots = 64
	}
	if c.MaxExpiry == 0 {
		c.MaxExpiry = 2
	}
	if c.Frames == 0 {
		if c.Lockstep {
			c.Frames = 256
		} else {
			c.Frames = 20000
		}
	}
	if c.Window == 0 {
		c.Window = 512
	}
	if c.Flows == 0 {
		c.Flows = 256
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
}

// geometry is a parsed Geometry string.
type geometry struct {
	kind   string // "chain" or "leafspine"
	leaves int
	spines int
}

// ErrGeometry formats the valid-geometry guidance every geometry error
// carries.
const validGeometries = `valid geometries: "chain" (with pipes 1..4) or "LxS" leaf-spine such as "4x2" (2..16 leaves, 1..13 spines, adjacent leaves on distinct spines: leaf k and leaf k+1 must differ mod S)`

// parseGeometry validates cfg's Geometry/Pipes combination.
func (c *Config) parseGeometry() (geometry, error) {
	if c.Geometry == "chain" {
		if c.Pipes < 1 || c.Pipes > core.NumPipes {
			return geometry{}, fmt.Errorf("live: chain geometry supports 1..%d pipes, got %d; %s", core.NumPipes, c.Pipes, validGeometries)
		}
		return geometry{kind: "chain"}, nil
	}
	l, s, ok := strings.Cut(c.Geometry, "x")
	if ok {
		leaves, err1 := strconv.Atoi(l)
		spines, err2 := strconv.Atoi(s)
		if err1 == nil && err2 == nil {
			if leaves < 2 || leaves > core.PortsPerPipe {
				return geometry{}, fmt.Errorf("live: leaf-spine %q needs 2..%d leaves; %s", c.Geometry, core.PortsPerPipe, validGeometries)
			}
			if spines < 1 || spines > core.PortsPerPipe-3 {
				return geometry{}, fmt.Errorf("live: leaf-spine %q needs 1..%d spines; %s", c.Geometry, core.PortsPerPipe-3, validGeometries)
			}
			for k := 0; k < leaves; k++ {
				if k%spines == ((k+1)%leaves)%spines {
					return geometry{}, fmt.Errorf("live: leaf-spine %q is not parking-safe: leaf %d and leaf %d share spine %d, so transit frames would hit a merge port; %s",
						c.Geometry, k, (k+1)%leaves, k%spines, validGeometries)
				}
			}
			return geometry{kind: "leafspine", leaves: leaves, spines: spines}, nil
		}
	}
	return geometry{}, fmt.Errorf("live: unknown geometry %q; %s", c.Geometry, validGeometries)
}

// Validate checks the configuration without running it.
func (c *Config) Validate() error {
	cc := *c
	cc.FillDefaults()
	g, err := cc.parseGeometry()
	if err != nil {
		return err
	}
	if cc.ExplicitDrop && g.kind != "chain" {
		return fmt.Errorf("live: explicit drop needs the NF on the parking switch's merge pipe; only the chain geometry provides that")
	}
	if cc.Slots < 1 || cc.Slots > core.MaxSlots {
		return fmt.Errorf("live: slots %d outside [1,%d]", cc.Slots, core.MaxSlots)
	}
	if cc.DropFraction < 0 || cc.DropFraction >= 1 {
		return fmt.Errorf("live: drop fraction %v outside [0,1)", cc.DropFraction)
	}
	return nil
}

// genMAC/nfMAC name the fabric's endpoints; index i is the generator/NF
// pair (chain: pipe index; leaf-spine: leaf index).
func genMAC(i int) packet.MAC { return packet.MAC{2, 0, 0, 0, byte(i), 1} }
func nfMAC(i int) packet.MAC  { return packet.MAC{2, 0, 0, 0, byte(i), 2} }

// sizeDist resolves the configured frame-size distribution.
func (c *Config) sizeDist() trafficgen.SizeDist {
	if c.FrameSize > 0 {
		return trafficgen.Fixed(c.FrameSize)
	}
	return trafficgen.Datacenter{}
}

// genFrames pre-serializes generator i's deterministic frame sequence;
// live run and reference replay share the same bytes.
func (c *Config) genFrames(i, targetNF int) [][]byte {
	tg := trafficgen.New(trafficgen.Config{
		Sizes:   c.sizeDist(),
		Flows:   c.Flows,
		SrcMAC:  genMAC(i),
		DstMAC:  nfMAC(targetNF),
		DstIP:   packet.IPv4Addr{192, 168, 0, byte(targetNF)},
		DstPort: 9000,
		Seed:    c.Seed + int64(i)*7919,
	})
	frames := make([][]byte, c.Frames)
	for k := range frames {
		p := tg.Next()
		frames[k] = p.Serialize()
		tg.Recycle(p)
	}
	return frames
}

// newNFHandle builds the NF chain both the live wire.NFDaemon and the
// reference replay run: an optional firewall verdict followed by the
// paper's MAC-swap forwarder. Verdicts depend only on the packet (the
// firewall is stateless per packet), so live and reference instances
// agree frame for frame.
func newNFHandle(dropFrac float64) func(*packet.Packet) bool {
	var fw *nf.Firewall
	if dropFrac > 0 {
		fw = nf.NewFirewall(nf.BlacklistFraction(dropFrac))
	}
	swap := nf.MACSwap{}
	return func(p *packet.Packet) bool {
		if fw != nil {
			if v, _ := fw.Process(p); v == nf.Drop {
				return false
			}
		}
		swap.Process(p)
		return true
	}
}

// CounterSet is the dataplane counter snapshot the parity gate compares:
// the program counters of §5 plus switch-level packet and drop
// accounting, merged across the fabric.
type CounterSet struct {
	Rx                  uint64            `json:"rx"`
	Tx                  uint64            `json:"tx"`
	Splits              uint64            `json:"splits"`
	Merges              uint64            `json:"merges"`
	Evictions           uint64            `json:"evictions"`
	PrematureEvictions  uint64            `json:"premature_evictions"`
	ExplicitDrops       uint64            `json:"explicit_drops"`
	OccupiedSkips       uint64            `json:"occupied_skips"`
	SmallPayloadSkips   uint64            `json:"small_payload_skips"`
	DemotedSkips        uint64            `json:"demoted_skips"`
	SplitDisabledFromNF uint64            `json:"split_disabled_from_nf"`
	BadTagDrops         uint64            `json:"bad_tag_drops"`
	StaleExplicitDrops  uint64            `json:"stale_explicit_drops"`
	Drops               map[string]uint64 `json:"drops,omitempty"`
}

// Equal reports counter-for-counter equality, drop reasons included.
func (a *CounterSet) Equal(b *CounterSet) bool {
	if a.Rx != b.Rx || a.Tx != b.Tx || a.Splits != b.Splits || a.Merges != b.Merges ||
		a.Evictions != b.Evictions || a.PrematureEvictions != b.PrematureEvictions ||
		a.ExplicitDrops != b.ExplicitDrops || a.OccupiedSkips != b.OccupiedSkips ||
		a.SmallPayloadSkips != b.SmallPayloadSkips || a.DemotedSkips != b.DemotedSkips ||
		a.SplitDisabledFromNF != b.SplitDisabledFromNF || a.BadTagDrops != b.BadTagDrops ||
		a.StaleExplicitDrops != b.StaleExplicitDrops {
		return false
	}
	if len(a.Drops) != len(b.Drops) {
		return false
	}
	for k, v := range a.Drops {
		if b.Drops[k] != v {
			return false
		}
	}
	return true
}

// Result is one run's outcome, shared by live and reference modes.
type Result struct {
	Geometry string `json:"geometry"`
	// Mode is "lockstep", "throughput", or "reference".
	Mode    string `json:"mode"`
	Parking bool   `json:"parking"`

	Sent           uint64 `json:"sent"`
	Delivered      uint64 `json:"delivered"`
	NFDropped      uint64 `json:"nf_dropped"`
	NFNotified     uint64 `json:"nf_notified"`
	DeliveredBytes uint64 `json:"delivered_bytes"`

	ElapsedNs int64   `json:"elapsed_ns"`
	PPS       float64 `json:"pps"`
	Gbps      float64 `json:"gbps"`

	Counters CounterSet `json:"counters"`

	// ControlTicks counts controller decisions taken over the socket
	// plant (0 without Control).
	ControlTicks int `json:"control_ticks,omitempty"`
}

// Parity compares a live run against its reference replay and returns a
// descriptive error on the first divergence — the sim-vs-live gate.
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
