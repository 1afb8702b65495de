package prog

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// decodeStrict is the decode every spec file goes through (ppbench
// -program, TestLintExampleSpecs): unknown fields are errors.
func decodeStrict(data []byte) (*Spec, error) {
	spec := new(Spec)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return spec, dec.Decode(spec)
}

// loadFresh loads spec onto new pipes, with a recirculation pipe when the
// spec uses one, and no overrides: a fuzzed spec carries its own parameters.
func loadFresh(spec *Spec) (*Instance, map[string]*rmt.Pipeline, error) {
	pipes := map[string]*rmt.Pipeline{"ingress": rmt.NewPipeline("ingress")}
	if spec.UsesRecircPipe() {
		pipes["recirc"] = rmt.NewPipeline("recirc")
	}
	inst, err := loadOn(spec, pipes)
	return inst, pipes, err
}

// loadOn loads spec onto pipes["ingress"] and pipes["recirc"].
func loadOn(spec *Spec, pipes map[string]*rmt.Pipeline) (*Instance, error) {
	return Load(spec, LoadOptions{Pipe: pipes["ingress"], RecircPipe: pipes["recirc"]})
}

// fuzzPHV draws one PHV a loaded program must survive: either of the
// program's ports (or a port it does not name), any header combination with
// sealed or corrupted tags of any index, and — as in randPHV — the parser's
// park region whole or, one time in four, absent (the parser lifts nothing
// from a small payload), over a payload longer than any park offset.
// Metadata starts zeroed, as the parser leaves it: every index a table then
// reads was published by a table of the program.
func fuzzPHV(r *rand.Rand, inst *Instance) *rmt.PHV {
	ft := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 0, 0, 2},
		SrcPort: uint16(r.Intn(4)), DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	b := packet.NewBuilder(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	var pkt *packet.Packet
	if r.Intn(3) == 0 {
		ft.Protocol = packet.IPProtoTCP
		pkt = b.TCP(ft, 1400, 7, 1)
	} else {
		pkt = b.UDP(ft, 1400, 1)
	}
	tag := func() packet.Tag {
		tag := packet.Tag{TableIndex: uint16(r.Intn(1 << 16)), Clock: uint16(r.Intn(4))}.Seal()
		if r.Intn(6) == 0 {
			tag.CRC++
		}
		return tag
	}
	switch r.Intn(4) {
	case 0:
		pkt.SetPP(packet.PPHeader{})
	case 1:
		pkt.SetPP(packet.PPHeader{Enabled: true, Op: packet.PPOp(r.Intn(2)), Tag: tag()})
	}
	if r.Intn(3) == 0 {
		pkt.SetCR(packet.CRHeader{Proto: packet.IPProtoUDP, Tag: tag()})
	}
	ports := []rmt.PortID{0, 1, 40}
	for _, name := range []string{"split_port", "merge_port"} {
		if v, ok := inst.Param(name); ok {
			ports = append(ports, rmt.PortID(v))
		}
	}
	phv := &rmt.PHV{Pkt: pkt, InPort: ports[r.Intn(len(ports))], Drop: r.Intn(8) == 0}
	blocks, blockBytes, _ := inst.ParkGeometry()
	if r.Intn(4) != 0 {
		phv.Park = pkt.Payload[:blocks*blockBytes]
	}
	return phv
}

// FuzzSpecCompile: no bytes that decode as a Spec make Load or Lint panic, a
// spec Load refuses leaves its pipes as fresh ones, and a spec Load accepts
// runs 256 PHVs — pass 0 on the ingress pipe, then pass 1 wherever the switch
// would recirculate them, and pass 1 cold — without panicking, its load (block
// moves fused, as production runs them) firing exactly the entries the naive
// oracle fires, by its per-entry hit counts, and leaving the oracle's PHV,
// registers and counters. The seeds are the built-in specs and the misfits,
// which Load refuses.
func FuzzSpecCompile(f *testing.F) {
	specs := BuiltinSpecs()
	for _, m := range misfits() {
		specs = append(specs, m.spec())
	}
	for _, spec := range specs {
		blob, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(fuzzSpecCompile)
}

func fuzzSpecCompile(t *testing.T, data []byte) {
	spec, err := decodeStrict(data)
	if err != nil {
		return
	}
	spec.Lint()
	fused, pipes, err := loadFresh(spec)
	if err != nil {
		requireFresh(t, pipes)
		return
	}
	twin, _, err := loadFresh(spec)
	if err != nil {
		t.Fatalf("second load of an accepted spec: %v", err)
	}
	o, hits := newOracle(t, twin), newHitLog(fused)
	second := "ingress"
	if pipes["recirc"] != nil {
		second = "recirc"
	}
	rf, rb := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 256; i++ {
		f, b := fuzzPHV(rf, fused), fuzzPHV(rb, twin)
		pipe := "ingress"
		if i%8 == 7 {
			pipe, f.Pass, b.Pass = second, 1, 1
		}
		for {
			pipes[pipe].Process(f)
			o.process(pipe, b)
			if fired := hits.fired(); !slices.Equal(fired, o.fired) {
				t.Fatalf("phv %d (%s port %d pass %d): compiled fired %v, oracle %v", i, pipe, b.InPort, b.Pass, fired, o.fired)
			}
			if !samePHV(f, b) {
				t.Fatalf("phv %d (%s, fired %v): final PHVs differ:\nfused  %+v\noracle %+v", i, pipe, o.fired, f, b)
			}
			if !f.Recirc || f.Pass != 0 {
				break
			}
			pipe = second
			f.Recirc, f.Pass, b.Recirc, b.Pass = false, 1, false, 1
		}
	}
	if diff := stateDiff(fused, o); diff != "" {
		t.Fatalf("after 256 PHVs: %s", diff)
	}
}
