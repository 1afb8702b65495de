package sim

import (
	"fmt"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/ctrl"
	"github.com/payloadpark/payloadpark/internal/nf"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/prog"
	"github.com/payloadpark/payloadpark/internal/rmt"
	"github.com/payloadpark/payloadpark/internal/stats"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// ParkMode selects where a leaf-spine fabric parks payloads.
type ParkMode uint8

const (
	// ParkNone runs the fabric as plain L2 switches (baseline).
	ParkNone ParkMode = iota
	// ParkEdge parks at the ingress leaf only: slim packets cross every
	// fabric hop and the payload is restored when the headers return to
	// the ingress leaf, just before leaving the programmable domain.
	ParkEdge
	// ParkEveryHop stripes the payload across the path (§7): the ingress
	// leaf, the spine, and the egress leaf each park a block, each
	// treating the upstream PayloadPark header as opaque payload. The
	// NF-facing link carries the least bytes; memory pressure spreads
	// over three switches.
	ParkEveryHop
)

// String names the mode in reports.
func (m ParkMode) String() string {
	switch m {
	case ParkEdge:
		return "edge"
	case ParkEveryHop:
		return "everyhop"
	default:
		return "baseline"
	}
}

// MarshalJSON encodes the mode by name, so serialized scenarios read
// "edge" rather than a bare enum ordinal.
func (m ParkMode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON accepts the mode names String produces.
func (m *ParkMode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"baseline"`, `""`:
		*m = ParkNone
	case `"edge"`:
		*m = ParkEdge
	case `"everyhop"`:
		*m = ParkEveryHop
	default:
		return fmt.Errorf("sim: unknown park mode %s (want \"baseline\", \"edge\", or \"everyhop\")", b)
	}
	return nil
}

// Leaf-spine port layout. Leaves use pipe-0 ports: 0 = traffic source,
// 1 = sink, 2 = local NF server, 3+s = spine s. Spines use port i for
// leaf i. Both layouts must fit one pipe (16 ports).
const (
	leafPortGen   = rmt.PortID(0)
	leafPortSink  = rmt.PortID(1)
	leafPortNF    = rmt.PortID(2)
	leafPortSpine = rmt.PortID(3)
)

// FabricConfig describes one leaf-spine simulation run.
type FabricConfig struct {
	// Leaves and Spines size the fabric (defaults 4 and 2). Spines must
	// be >= 2 and Leaves even when parking is enabled, so that a flow's
	// forward path never enters the egress leaf on a merge port (spine
	// affinity alternates with leaf parity).
	Leaves, Spines int
	// LinkBps is the fabric and edge link rate.
	LinkBps float64
	// SendBps is the offered load per traffic source.
	SendBps float64
	// Dist draws packet sizes; Flows is each source's 5-tuple pool size.
	Dist  trafficgen.SizeDist
	Flows int
	// Mode selects the parking scheme.
	Mode ParkMode
	// Slots sizes each installed program's lookup table; MaxExpiry is the
	// eviction threshold.
	Slots     int
	MaxExpiry uint32
	// Compress additionally loads the declarative header-compression
	// program (prog.HeaderCompressSpec) at every ingress leaf: headers
	// compress where the flow enters the fabric and restore when they
	// return from the flow's spine, mirroring ParkEdge's port layout. It
	// composes with ParkNone (compression alone) and ParkEdge (both
	// policies on the same pipe), and shares ParkEdge's spine-affinity
	// geometry requirement since the restore port is pinned the same way.
	// Incompatible with ParkEveryHop, whose byte-accurate wire-parse hops
	// would re-parse compressed transit frames.
	Compress bool
	// CompressSlots sizes each compression context table (default Slots);
	// CompressMaxExpiry is the context eviction threshold (default
	// MaxExpiry).
	CompressSlots     int
	CompressMaxExpiry uint32
	// Server calibrates the NF servers (one per leaf).
	Server ServerModel
	// Seed drives all randomness.
	Seed int64
	// WarmupNs/MeasureNs bound the measurement window.
	WarmupNs  int64
	MeasureNs int64
	// PropNs is the per-link propagation delay; QueueBytes the egress
	// buffer per fabric port.
	PropNs     int64
	QueueBytes int
	// FailLink enables the failure scenario: flow 0's forward spine->leaf
	// link goes down at FailAtNs, and the forward path is rerouted onto
	// the alternate spine RerouteNs later (route detection + programming
	// delay). The parked state at the ingress leaf survives, because the
	// merge port pins the return path; only packets in flight on the dead
	// link orphan their parked payloads.
	FailLink  bool
	FailAtNs  int64
	RerouteNs int64
	// ECMP replaces each ingress leaf's static forward (NF-bound) route
	// with a hash-group next-hop table over the parking-safe spines:
	// flows spread across group members by 5-tuple Maglev hashing, and
	// member loss remaps only the flows that rode the lost member. Return
	// routes stay pinned to each flow's merge spine, so parked payloads
	// always find their way home. Incompatible with ParkEveryHop, whose
	// per-hop programs are installed on a flow's static path.
	ECMP bool
	// Control, when non-nil, attaches the fabric-wide controller: every
	// Control.PeriodNs it reads per-switch and per-link telemetry and
	// pushes ECMP membership (link failure/congestion rebalancing) and —
	// with Control.Adaptive — per-switch Expiry retuning plus hot-switch
	// parking demotion. The decision timeline lands in
	// FabricResult.Control. With ECMP and no controller, the failure
	// scenario falls back to a one-shot group rewrite RerouteNs after the
	// failure (mirroring the static route-detection delay).
	Control *ctrl.Config
	// Partitions shards the fabric across that many conservatively
	// synchronized engines, one goroutine each (0 and 1 run serial — the
	// reference timeline). Switches are placed by greedy min-cut over the
	// leaf-spine graph; each leaf's source, sink, and NF server follow
	// their leaf. Results are byte-identical across partition counts. A
	// fabric-wide controller (Control non-nil) reads and writes global
	// state mid-run and therefore forces a serial run regardless.
	Partitions int
	// Cancel, when non-nil, is polled periodically by the event engine;
	// once it returns true the run stops early and the result is partial.
	Cancel func() bool
	// Obs arms the observability layer (metrics and/or the flight
	// recorder); the zero value keeps it off.
	Obs ObsConfig
}

func (c *FabricConfig) fillDefaults() {
	if c.Leaves == 0 {
		c.Leaves = 4
	}
	if c.Spines == 0 {
		c.Spines = 2
	}
	if c.LinkBps == 0 {
		c.LinkBps = 10e9
	}
	if c.Dist == nil {
		c.Dist = trafficgen.Datacenter{}
	}
	if c.Flows == 0 {
		c.Flows = 1024
	}
	if c.Slots == 0 {
		c.Slots = 8192
	}
	if c.MaxExpiry == 0 {
		c.MaxExpiry = 1
	}
	if c.Server.FreqHz == 0 {
		c.Server = DefaultServerModel()
	}
	if c.WarmupNs == 0 {
		c.WarmupNs = 5e6
	}
	if c.MeasureNs == 0 {
		c.MeasureNs = 20e6
	}
	if c.PropNs == 0 {
		c.PropNs = 500
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 1 << 20
	}
	if c.FailAtNs == 0 {
		c.FailAtNs = c.WarmupNs + c.MeasureNs/4
	}
	if c.RerouteNs == 0 {
		c.RerouteNs = 2e6
	}
}

// Validate reports the first leaf-spine rule the configuration breaks
// (zero Leaves/Spines read as the 4x2 default). It is the one place the
// geometry and mode-combination rules live: scenario validation returns
// its error, RunLeafSpine panics with it.
func (c FabricConfig) Validate() error {
	c.fillDefaults()
	L, S := c.Leaves, c.Spines
	if L < 2 || L > 16 || S < 1 || S > 13 {
		return fmt.Errorf("%dx%d outside supported geometry (2..16 leaves, 1..13 spines)", L, S)
	}
	if c.ECMP && c.Mode == ParkEveryHop {
		return fmt.Errorf("ECMP cannot stripe: park-at-every-hop programs are installed on each flow's static path")
	}
	if c.Compress && c.Mode == ParkEveryHop {
		return fmt.Errorf("compression cannot ride every-hop striping: wire-parse hops would re-parse compressed transit frames")
	}
	if c.Mode != ParkNone || c.Compress {
		// A slim transit packet entering the egress leaf on that leaf's
		// merge port would be treated as a merge with a foreign tag and
		// dropped as a premature eviction, so every flow's spine affinity
		// must differ from its egress leaf's (4x2 and 6x3 qualify; 4x3
		// does not — flow 3's affinity collides with leaf 0's).
		// Compression pins its restore port identically, so the same
		// geometry requirement applies.
		for i := 0; i < L; i++ {
			if c.spineOf(i) == c.spineOf((i+1)%L) {
				return fmt.Errorf("%dx%d cannot park: flow %d's forward path enters leaf %d on its merge port (try 4x2 or 6x3)", L, S, i, (i+1)%L)
			}
		}
		if c.FailLink && S < 3 {
			return fmt.Errorf("parking-safe reroute needs a third spine (got %d): with two, the alternate path arrives on the egress leaf's merge port", S)
		}
	}
	return nil
}

// FlowResult reports one source->NF->sink flow across the fabric.
type FlowResult struct {
	// Name is "leaf<i>->nf<j>".
	Name string `json:"name"`
	// SendGbps is the offered load measured at the source.
	SendGbps float64 `json:"send_gbps"`
	// GoodputGbps is the paper's header-unit goodput measured at delivery
	// over the egress-leaf->NF link (42 B per delivered packet).
	GoodputGbps float64 `json:"goodput_gbps"`
	// ToNFGbps / ToNFMpps describe that link's actual traffic.
	ToNFGbps float64 `json:"to_nf_gbps"`
	ToNFMpps float64 `json:"to_nf_mpps"`
	// Latency of packets delivered to the sink, microseconds.
	AvgLatencyUs float64 `json:"avg_latency_us"`
	MaxLatencyUs float64 `json:"max_latency_us"`
	// Delivered counts packets reaching the sink in-window.
	Delivered uint64 `json:"delivered"`
}

// FabricResult is the outcome of one leaf-spine run: per-flow end-to-end
// metrics plus the per-hop link and switch reports.
type FabricResult struct {
	Mode  string       `json:"mode"`
	Flows []FlowResult `json:"flows"`
	// Links and Switches are the per-hop reports, in wiring order.
	Links    []LinkStats   `json:"links"`
	Switches []SwitchStats `json:"switches"`
	// Programs reports each declaratively attached table program's
	// in-window counter deltas (compression; empty unless
	// FabricConfig.Compress ran).
	Programs []ProgramCounters `json:"programs,omitempty"`
	// Aggregates over all flows.
	SendGbps     float64 `json:"send_gbps"`
	GoodputGbps  float64 `json:"goodput_gbps"`
	AvgLatencyUs float64 `json:"avg_latency_us"`
	// UnintendedDropRate is fabric-wide: every queue/ring/link/eviction
	// drop of an in-window packet, anywhere on any path, over packets
	// offered in-window.
	SentWindow         uint64  `json:"sent_window"`
	UnintendedDrops    uint64  `json:"unintended_drops"`
	UnintendedDropRate float64 `json:"unintended_drop_rate"`
	Healthy            bool    `json:"healthy"`
	// PhaseDelivered counts flow 0's NF deliveries before the failure,
	// during the outage, and after the reroute (all zero when the
	// failure scenario is off).
	PhaseDelivered [3]uint64 `json:"phase_delivered"`
	// Control is the control-plane report — tick counts and the decision
	// timeline — when a controller ran (nil otherwise).
	Control *ctrl.Report `json:"control,omitempty"`
}

// spineOf returns the spine affinity of flow i (used for both the
// forward and the return path, which is what pins the merge port).
func (c *FabricConfig) spineOf(i int) int { return i % c.Spines }

func leafSpineMACs(i int) (gen, nfm packet.MAC) {
	return packet.MAC{0x02, 0x40, 0, 0, 0, byte(i)}, packet.MAC{0x02, 0x50, 0, 0, 0, byte(i)}
}

// RunLeafSpine simulates a leaf-spine fabric: every leaf hosts a traffic
// source, a sink, and an NF server running a MAC-swap chain; flow i
// enters at leaf i and is served by the NF at leaf (i+1) mod Leaves,
// crossing spine i mod Spines in both directions. Parking follows
// cfg.Mode; static route tables (each switch's L2 table) map every flow
// to its port path.
func RunLeafSpine(cfg FabricConfig) FabricResult {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		panic("sim: leaf-spine " + err.Error())
	}
	L, S := cfg.Leaves, cfg.Spines

	// Partition placement: greedy min-cut over the switch graph (leaves
	// 0..L-1 then spines L..L+S-1, matching report order); every leaf's
	// source, sink, and NF server follow their leaf. The controller reads
	// and writes fabric-wide state mid-run, so it forces a serial run.
	P := cfg.Partitions
	if P < 1 || cfg.Control != nil {
		P = 1
	}
	if P > L+S {
		P = L + S
	}
	adj := make([][]int, L+S)
	for i := 0; i < L; i++ {
		for s := 0; s < S; s++ {
			adj[i] = append(adj[i], L+s)
			adj[L+s] = append(adj[L+s], i)
		}
	}
	part := greedyPartition(adj, P)

	f := NewFabric()
	f.SetPartitions(P)
	for p := 0; p < P; p++ {
		f.PartitionEngine(p).Cancel = cfg.Cancel
	}
	windowStart := cfg.WarmupNs
	windowEnd := cfg.WarmupNs + cfg.MeasureNs

	// Nodes first: leaves, then spines, so reports read in that order.
	leaves := make([]*SwitchNode, L)
	for i := range leaves {
		leaves[i] = f.AddSwitchAt(fmt.Sprintf("leaf%d", i), part[i])
	}
	spines := make([]*SwitchNode, S)
	for s := range spines {
		spines[s] = f.AddSwitchAt(fmt.Sprintf("spine%d", s), part[L+s])
	}

	// Static routes. Flow i: leaf i -> spine i%S -> leaf (i+1)%L -> NF,
	// and the exact reverse for the returning headers.
	for i := 0; i < L; i++ {
		for k := 0; k < L; k++ {
			genK, nfK := leafSpineMACs(k)
			if k == i {
				// NF k hangs off this leaf; merged headers for source k
				// leave toward its sink.
				leaves[i].SW.AddL2Route(nfK, leafPortNF)
				leaves[i].SW.AddL2Route(genK, leafPortSink)
				continue
			}
			// Toward NF k: the flow sourced at leaf k-1 owns the path.
			leaves[i].SW.AddL2Route(nfK, leafPortSpine+rmt.PortID(cfg.spineOf((k-1+L)%L)))
			// Toward source k: the return path of flow k.
			leaves[i].SW.AddL2Route(genK, leafPortSpine+rmt.PortID(cfg.spineOf(k)))
		}
	}
	for s := 0; s < S; s++ {
		for k := 0; k < L; k++ {
			genK, nfK := leafSpineMACs(k)
			spines[s].SW.AddL2Route(nfK, rmt.PortID(k))
			spines[s].SW.AddL2Route(genK, rmt.PortID(k))
		}
	}

	// Programs.
	attach := func(n *SwitchNode, split, merge rmt.PortID) {
		if _, err := n.SW.AttachPayloadPark(core.Config{
			Slots: cfg.Slots, MaxExpiry: cfg.MaxExpiry,
			SplitPort: split, MergePort: merge,
		}, -1); err != nil {
			panic(fmt.Sprintf("sim: leaf-spine attach %s: %v", n.Name, err))
		}
	}
	if cfg.Mode != ParkNone {
		// Ingress-leaf programs: split what the source sends, merge what
		// returns from this flow's spine.
		for i := 0; i < L; i++ {
			attach(leaves[i], leafPortGen, leafPortSpine+rmt.PortID(cfg.spineOf(i)))
		}
	}
	// Compression companion policy: compress where the flow enters the
	// fabric, restore when the headers return from the flow's spine —
	// the same port layout ParkEdge uses, loaded from the declarative
	// spec rather than a built-in Go program.
	leafComp := make([]*prog.Instance, L)
	if cfg.Compress {
		slots := cfg.CompressSlots
		if slots == 0 {
			slots = cfg.Slots
		}
		exp := cfg.CompressMaxExpiry
		if exp == 0 {
			exp = cfg.MaxExpiry
		}
		for i := 0; i < L; i++ {
			spec := prog.HeaderCompressSpec(prog.CompressParams{
				Slots: slots, MaxExpiry: exp,
				CompressPort: int(leafPortGen),
				RestorePort:  int(leafPortSpine + rmt.PortID(cfg.spineOf(i))),
			})
			inst, err := leaves[i].SW.AttachSpec(spec, nil, nil)
			if err != nil {
				panic(fmt.Sprintf("sim: leaf-spine attach compression %s: %v", leaves[i].Name, err))
			}
			leafComp[i] = inst
		}
	}
	// Window-start compression-counter snapshots, each taken on the
	// engine owning its leaf so partitioned runs stay race-free.
	compSnaps := make([]map[string]uint64, L)
	if cfg.Compress {
		for i := 0; i < L; i++ {
			i := i
			leaves[i].Engine().ScheduleAt(windowStart, func() {
				compSnaps[i] = counterSnapshot(leafComp[i])
			})
		}
	}
	if cfg.Mode == ParkEveryHop {
		// Striping parks again at the spine and at the egress leaf; each
		// downstream program sees the upstream header as payload, which
		// requires byte-accurate hops.
		for _, n := range leaves {
			n.WireParse = true
		}
		for _, n := range spines {
			n.WireParse = true
		}
		for i := 0; i < L; i++ {
			j := (i + 1) % L
			attach(spines[cfg.spineOf(i)], rmt.PortID(i), rmt.PortID(j))
			// Last-hop program at the egress leaf: split what arrives from
			// the flow's spine, merge what the local NF returns.
			attach(leaves[j], leafPortSpine+rmt.PortID(cfg.spineOf(i)), leafPortNF)
		}
	}

	// Control plane. ECMP overlays each ingress leaf's forward route with
	// a hash group over the parking-safe spines (a group takes precedence
	// over the static L2 entry); the controller — when configured — owns
	// membership from there.
	var plant *controlPlant
	var groups []ctrl.Group
	if cfg.ECMP || cfg.Control != nil {
		// Transit programs (demotable by the adaptive policy) are the
		// every-hop stripers: everything whose split port is not the
		// ingress-leaf traffic source.
		plant = newControlPlant(f, func(prog *core.Program) bool {
			return prog.Config().SplitPort != leafPortGen
		})
	}
	if cfg.ECMP {
		for i := 0; i < L; i++ {
			j := (i + 1) % L
			_, nfDst := leafSpineMACs(j)
			ports := make(map[string]rmt.PortID, S)
			var members []ctrl.Member
			for s := 0; s < S; s++ {
				if (cfg.Mode != ParkNone || cfg.Compress) && s == cfg.spineOf(j) {
					// A slim (or compressed) flow arriving at the egress
					// leaf on this spine's port would hit that leaf's
					// merge/restore port.
					continue
				}
				name := fmt.Sprintf("spine%d", s)
				ports[name] = leafPortSpine + rmt.PortID(s)
				members = append(members, ctrl.Member{Name: name, Links: []string{
					fmt.Sprintf("leaf%d->spine%d", i, s),
					fmt.Sprintf("spine%d->leaf%d", s, j),
				}})
			}
			gname := fmt.Sprintf("leaf%d->nf%d", i, j)
			if err := leaves[i].SW.SetECMPRoute(nfDst, ports); err != nil {
				panic(fmt.Sprintf("sim: leaf-spine ECMP group %s: %v", gname, err))
			}
			plant.addGroup(gname, leaves[i], nfDst, ports)
			groups = append(groups, ctrl.Group{Name: gname, Switch: leaves[i].Name, Members: members})
		}
	}

	// Per-flow state. Counters that used to be fabric-global (sent-window,
	// unintended drops) are sharded per flow / per partition — each shard
	// has exactly one writing partition — and summed at harvest, so
	// partitioned runs stay race-free and byte-identical to serial ones.
	type flowState struct {
		gen      *trafficgen.Generator
		sink     *SinkNode
		goodput  *stats.RateMeter
		toNF     *stats.RateMeter
		sentBits *stats.RateMeter
		sent     uint64
	}
	flows := make([]*flowState, L)
	partDrops := make([]uint64, P)
	// dropFor builds a drop hook for flow r's packets charged to the
	// partition hosting the dropping hop. Recycling into flow r's pool is
	// only safe from the partition that owns r's generator (the source
	// leaf's); elsewhere the packet is released to the GC — generators
	// fully rewrite reused packets, so pool membership never shows up in
	// results. Drops can strike mid-fabric where the owning flow is
	// unknown; charging a neighbour pool is equally harmless.
	dropFor := func(r, at int) func(Parcel, string) {
		home := part[r]
		return func(p Parcel, _ string) {
			if p.InWindow {
				partDrops[at]++
			}
			if at == home {
				flows[r].gen.Recycle(p.Pkt)
			}
		}
	}
	consumeFor := func(r, at int) func(Parcel) {
		home := part[r]
		return func(p Parcel) {
			if at == home {
				flows[r].gen.Recycle(p.Pkt)
			}
		}
	}

	for i := 0; i < L; i++ {
		gen, _ := leafSpineMACs(i)
		_, nfDst := leafSpineMACs((i + 1) % L)
		flows[i] = &flowState{
			gen: trafficgen.New(trafficgen.Config{
				Sizes: cfg.Dist, Flows: cfg.Flows,
				SrcMAC: gen, DstMAC: nfDst,
				DstIP: packet.IPv4Addr{10, 2, byte(i), 9}, DstPort: 80,
				Seed: cfg.Seed + int64(i),
			}),
			goodput:  stats.NewRateMeter(windowStart),
			toNF:     stats.NewRateMeter(windowStart),
			sentBits: stats.NewRateMeter(windowStart),
		}
		leaves[i].OnDrop = dropFor(i, part[i])
		leaves[i].OnConsumed = consumeFor(i, part[i])
	}
	for s := 0; s < S; s++ {
		spines[s].OnDrop = dropFor(s%L, part[L+s])
		spines[s].OnConsumed = consumeFor(s%L, part[L+s])
	}

	// Failure bookkeeping (flow 0).
	var phaseDelivered [3]uint64
	phase := func(now int64) int {
		if !cfg.FailLink || now < cfg.FailAtNs {
			return 0
		}
		if now < cfg.FailAtNs+cfg.RerouteNs {
			return 1
		}
		return 2
	}

	// Cables. Fabric links both ways between every leaf and every spine —
	// the only links that can cross a partition cut (everything at the
	// edge shares its leaf's partition). A link's transmit side lives with
	// the sending switch; its drop hook charges that same partition.
	fabricLink := func(name string, deliver func(Parcel), onDrop func(Parcel, string), src, dst int) *Link {
		return f.NewLinkAt(name, cfg.LinkBps, cfg.PropNs, cfg.QueueBytes, deliver, onDrop, src, dst)
	}
	var failLink *Link
	for i := 0; i < L; i++ {
		for s := 0; s < S; s++ {
			up := fabricLink(fmt.Sprintf("leaf%d->spine%d", i, s),
				spines[s].Ingress(rmt.PortID(i)), dropFor(i, part[i]), part[i], part[L+s])
			leaves[i].SetOut(leafPortSpine+rmt.PortID(s), up)
			down := fabricLink(fmt.Sprintf("spine%d->leaf%d", s, i),
				leaves[i].Ingress(leafPortSpine+rmt.PortID(s)), dropFor(i, part[L+s]), part[L+s], part[i])
			spines[s].SetOut(rmt.PortID(i), down)
			if cfg.FailLink && s == cfg.spineOf(0) && i == 1%L {
				failLink = down // flow 0's forward last fabric hop
			}
		}
	}

	// Edge cables: source, sink, and NF server per leaf. Everything here
	// rides its leaf's partition — the source, sink, and their links with
	// the ingress leaf i; the NF server, its cables, and flow i's delivery
	// tap with the egress leaf j — so no edge hop ever crosses a cut.
	for i := 0; i < L; i++ {
		i := i
		fs := flows[i]
		j := (i + 1) % L
		ingEng, egrEng := leaves[i].Engine(), leaves[j].Engine()

		genLink := f.NewLinkAt(fmt.Sprintf("gen%d->leaf%d", i, i),
			2*cfg.LinkBps, cfg.PropNs, 4<<20, leaves[i].Ingress(leafPortGen), dropFor(i, part[i]), part[i], part[i])

		fs.sink = f.AddSinkAt(fmt.Sprintf("sink%d", i), windowEnd, fs.gen.Recycle, part[i])
		sinkLink := f.NewLinkAt(fmt.Sprintf("leaf%d->sink%d", i, i),
			2*cfg.LinkBps, cfg.PropNs, 2*cfg.QueueBytes, fs.sink.Receive, dropFor(i, part[i]), part[i], part[i])
		leaves[i].SetOut(leafPortSink, sinkLink)

		// The NF at leaf j serves flow i: its delivery tap owns flow i's
		// goodput meters.
		srv := nf.NewServer(nf.ServerConfig{Chain: nf.NewChain(nf.MACSwap{})})
		returnLink := f.NewLinkAt(fmt.Sprintf("nf%d->leaf%d", j, j),
			cfg.LinkBps, cfg.PropNs, cfg.QueueBytes, leaves[j].Ingress(leafPortNF), dropFor(i, part[j]), part[j], part[j])
		srvSim := NewServerSim(egrEng, cfg.Server, srv, cfg.Seed+(int64(i)+1)<<40,
			returnLink.Send, dropFor(i, part[j]), consumeFor(i, part[j]))
		toNFLink := f.NewLinkAt(fmt.Sprintf("leaf%d->nf%d", j, j),
			cfg.LinkBps, cfg.PropNs, cfg.QueueBytes,
			func(p Parcel) {
				now := egrEng.Now()
				if p.InWindow && now >= windowStart && now <= windowEnd {
					fs.goodput.Record(now, packet.HeaderUnitLen*8)
					fs.toNF.Record(now, float64(WireBytes(p.Pkt)*8))
				}
				if i == 0 {
					phaseDelivered[phase(now)]++
				}
				srvSim.Receive(p)
			}, dropFor(i, part[j]), part[j], part[j])
		leaves[j].SetOut(leafPortNF, toNFLink)

		src := f.AddSourceAt(fmt.Sprintf("gen%d", i), fs.gen, genLink, cfg.SendBps, part[i])
		src.WindowStart, src.WindowEnd = windowStart, windowEnd
		src.StopAt = windowEnd + cfg.WarmupNs/2
		src.OnSend = func(p Parcel) {
			fs.sent++
			fs.sentBits.Record(ingEng.Now(), float64(p.Pkt.Len()*8))
		}
		src.Start(int64(i) * 131) // desynchronize sources slightly
	}

	// Failure scenario: fail flow 0's forward spine->leaf link, then
	// repoint the forward route onto an alternate spine. With parking on,
	// the alternate must avoid both the dead spine and the spine whose
	// arrival port is the egress leaf's merge port (validated above);
	// parked state at leaf 0 survives because the merge port pins the
	// untouched return path.
	if cfg.FailLink {
		// The failure lands on the engine owning the affected state: the
		// dead link's transmit side lives with its spine, the route (or
		// group) rewrite with leaf 0 — so partitioned runs mutate each from
		// its own timeline only.
		spines[cfg.spineOf(0)].Engine().ScheduleAt(cfg.FailAtNs, func() { failLink.Down = true })
		switch {
		case !cfg.ECMP:
			_, nfDst := leafSpineMACs(1 % L)
			alt := (cfg.spineOf(0) + 1) % S
			if cfg.Mode != ParkNone {
				for alt == cfg.spineOf(0) || alt == cfg.spineOf(1%L) {
					alt = (alt + 1) % S
				}
			}
			altPort := leafPortSpine + rmt.PortID(alt)
			leaves[0].Engine().ScheduleAt(cfg.FailAtNs+cfg.RerouteNs, func() {
				leaves[0].SW.AddL2Route(nfDst, altPort)
			})
		case cfg.Control == nil:
			// ECMP without a controller: one-shot group rewrite after the
			// static detection delay — the failed spine leaves flow 0's
			// forward group, and Maglev remaps only the flows it carried.
			dead := fmt.Sprintf("spine%d", cfg.spineOf(0))
			var survivors []string
			for _, m := range groups[0].Members {
				if m.Name != dead {
					survivors = append(survivors, m.Name)
				}
			}
			leaves[0].Engine().ScheduleAt(cfg.FailAtNs+cfg.RerouteNs, func() {
				plant.PushGroup(groups[0].Name, survivors)
			})
			// With a controller, its next telemetry tick sees the down link
			// and reroutes — detection latency is the tick period.
		}
	}

	f.EnableObs(cfg.Obs)

	var controller *ctrl.Controller
	if cfg.Control != nil {
		cc := *cfg.Control
		if cc.Aggressive == 0 {
			cc.Aggressive = cfg.MaxExpiry
		}
		controller = attachController(f, cc, plant, groups, windowEnd+cfg.WarmupNs)
	}

	f.Run(windowEnd + cfg.WarmupNs)

	// Harvest (single-threaded again; partition goroutines are done). The
	// sharded counters sum back to the fabric-wide figures.
	var sentWindow, unintendedDrops uint64
	for _, fs := range flows {
		sentWindow += fs.sent
	}
	for _, d := range partDrops {
		unintendedDrops += d
	}
	res := FabricResult{
		Mode:            cfg.Mode.String(),
		Links:           f.LinkReports(windowEnd + cfg.WarmupNs),
		Switches:        f.SwitchReports(),
		SentWindow:      sentWindow,
		UnintendedDrops: unintendedDrops,
		PhaseDelivered:  phaseDelivered,
	}
	if cfg.Compress {
		for i, inst := range leafComp {
			res.Programs = append(res.Programs, programReport(leaves[i].Name, inst, compSnaps[i]))
		}
		sortPrograms(res.Programs)
	}
	if controller != nil {
		res.Control = controller.Snapshot()
	}
	for i, fs := range flows {
		fs.sentBits.CloseAt(windowEnd)
		fs.goodput.CloseAt(windowEnd)
		fs.toNF.CloseAt(windowEnd)
		fr := FlowResult{
			Name:         fmt.Sprintf("leaf%d->nf%d", i, (i+1)%L),
			SendGbps:     fs.sentBits.Gbps(),
			GoodputGbps:  fs.goodput.Gbps(),
			ToNFGbps:     fs.toNF.Gbps(),
			ToNFMpps:     fs.goodput.Mpps(),
			AvgLatencyUs: fs.sink.Latency.Mean(),
			MaxLatencyUs: fs.sink.Latency.Max(),
			Delivered:    fs.sink.Delivered,
		}
		res.Flows = append(res.Flows, fr)
		res.SendGbps += fr.SendGbps
		res.GoodputGbps += fr.GoodputGbps
		res.AvgLatencyUs += fr.AvgLatencyUs
	}
	res.AvgLatencyUs /= float64(L)
	if sentWindow > 0 {
		res.UnintendedDropRate = float64(unintendedDrops) / float64(sentWindow)
	}
	res.Healthy = res.UnintendedDropRate < HealthyDropRate
	return res
}
