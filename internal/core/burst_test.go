package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/rmt"
)

// TestFrameBurstMatchesInjectBatch drives the same frame sequence through
// FrameBurst in bursts of 8 (slot scratch, in-place headroom merge) and,
// one at a time, through the packet-level entry (ParseAt + a batch of
// one + Serialize) on identically configured switches: emitted bytes and
// program counters must agree — bursting and slot reuse are an
// optimization, not a semantic change.
func TestFrameBurstMatchesInjectBatch(t *testing.T) {
	mkSwitch := func() (*Switch, *Program) {
		s := NewSwitch("burst")
		prog, err := s.AttachPayloadPark(Config{Slots: 16, MaxExpiry: 1, SplitPort: 0, MergePort: 1}, -1)
		if err != nil {
			t.Fatal(err)
		}
		genMAC := packet.MAC{2, 0, 0, 0, 0, 1}
		nfMAC := packet.MAC{2, 0, 0, 0, 0, 2}
		s.AddL2Route(nfMAC, 1)
		s.AddL2Route(genMAC, 0)
		return s, prog
	}
	flow := packet.FiveTuple{
		SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 1, 0, 9},
		SrcPort: 5000, DstPort: 80, Protocol: packet.IPProtoUDP,
	}
	b := packet.NewBuilder(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	// Sizes straddle the park threshold so splits, small-payload skips and
	// slot reuse all occur.
	var frames [][]byte
	for i := 0; i < 48; i++ {
		frames = append(frames, b.UDP(flow, 120+i*40, uint16(i)).Serialize())
	}

	// Reference: one frame at a time through the packet-level entry,
	// split frames bounced back in on the merge port (NF round trip
	// elided — the switch sees the same byte sequence either way).
	refSw, refProg := mkSwitch()
	ref := func(in [][]byte, port rmt.PortID) [][]byte {
		var outs [][]byte
		for _, f := range in {
			pkt, err := packet.ParseAt(f, refSw.PPOffset(port))
			if err != nil {
				t.Fatal(err)
			}
			if em := inject(refSw, pkt, port); em != nil {
				outs = append(outs, em.Pkt.Serialize())
			}
		}
		return outs
	}
	refOut := ref(frames, 0)
	refMerged := ref(refOut, 1)

	// Batched: same frames through FrameBurst in bursts of 8.
	bSw, bProg := mkSwitch()
	burst := bSw.NewFrameBurst(8)
	run := func(in [][]byte, port rmt.PortID) [][]byte {
		var outs [][]byte
		for at := 0; at < len(in); at += burst.Cap() {
			end := at + burst.Cap()
			if end > len(in) {
				end = len(in)
			}
			burst.Reset()
			for _, f := range in[at:end] {
				if err := burst.Add(f, port); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range burst.Run() {
				if r.OK {
					outs = append(outs, r.Em.Pkt.AppendSerialize(nil))
				}
			}
		}
		return outs
	}
	bOut := run(frames, 0)
	bMerged := run(bOut, 1)

	for _, side := range []struct {
		name      string
		got, want [][]byte
	}{{"split", bOut, refOut}, {"merge", bMerged, refMerged}} {
		if len(side.got) != len(side.want) {
			t.Fatalf("%s-side emissions: burst %d, reference %d", side.name, len(side.got), len(side.want))
		}
		for i := range side.got {
			if !bytes.Equal(side.got[i], side.want[i]) {
				t.Errorf("%s frame %d differs between burst and per-packet paths", side.name, i)
			}
		}
	}
	if got, want := bProg.C.String(), refProg.C.String(); got != want {
		t.Errorf("counters diverge:\n  burst: %s\n  ref:   %s", got, want)
	}
}

// TestPooledPHVCarriesNothing runs a sequence through a pipe whose PHV pool
// holds one PHV — a split that parks a region over a recirculated second
// pass, a split too small to park, a merge dropped for a bad tag, the
// first split's merge, a 64 B miss on a port no rule names, and the second
// split's merge — and holds every packet's emission, drop reason and the
// switch's counters to a twin switch that gives every packet a fresh PHV.
func TestPooledPHVCarriesNothing(t *testing.T) {
	cfg := defaultCfg()
	cfg.Recirculate = true
	pooled, _ := testbed(t, cfg, 1)
	fresh, _ := testbed(t, cfg, 1)
	pb, fb := pooled.NewFrameBurst(1), fresh.NewFrameBurst(1)
	var one *rmt.PHV
	send := func(step string, frame []byte, in rmt.PortID) []byte {
		t.Helper()
		fresh.Pipe(0).AcquirePHV() // drain the twin's pool: its next packet gets a new PHV
		var out [2][]byte
		var res [2]BatchResult
		for i, b := range []*FrameBurst{pb, fb} {
			b.Reset()
			if err := b.Add(frame, in); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if res[i] = b.Run()[0]; res[i].OK {
				out[i] = res[i].Em.Pkt.Serialize()
			}
			res[i].Em.Pkt = nil
		}
		if res[0] != res[1] || !bytes.Equal(out[0], out[1]) {
			t.Errorf("%s: pooled PHV gives %+v %x, a fresh one %+v %x", step, res[0], out[0], res[1], out[1])
		}
		pc, fc := pooled.ParkCounters(), fresh.ParkCounters()
		ps, pr := pooled.MatchCounts()
		fs, fr := fresh.MatchCounts()
		if pc.String() != fc.String() || ps != fs || pr != fr || fmt.Sprint(pooled.Drops()) != fmt.Sprint(fresh.Drops()) {
			t.Errorf("%s: counters diverge:\n  pooled %s, %d steps, %d loads, drops %v\n  fresh  %s, %d steps, %d loads, drops %v",
				step, pc.String(), ps, pr, pooled.Drops(), fc.String(), fs, fr, fresh.Drops())
		}
		phv := pooled.Pipe(0).AcquirePHV()
		if one != nil && phv != one {
			t.Fatalf("%s: the pool handed out a second PHV", step)
		}
		one = phv
		pooled.Pipe(0).ReleasePHV(phv)
		return out[0]
	}
	back := func(frame []byte) []byte {
		frame = bytes.Clone(frame)
		copy(frame, sinkMAC[:])
		return frame
	}
	a := send("split A", mkPkt(1024, 1).Serialize(), portGen)
	if len(a) != 1024-RecircParkBytes+packet.PPHeaderLen {
		t.Fatalf("split A left %d bytes, want %d parked", len(a), RecircParkBytes)
	}
	b := send("split B", mkPkt(300, 2).Serialize(), portGen)
	bad := back(a)
	bad[packet.HeaderUnitLen+packet.PPHeaderLen-1] ^= 0xff // the tag's CRC
	if send("bad tag", bad, portNF) != nil {
		t.Error("a merge with a bad tag was not dropped")
	}
	if send("merge A", back(a), portNF) == nil {
		t.Error("merge A dropped")
	}
	miss := mkPkt(64, 3)
	miss.Eth.Dst = sinkMAC
	send("64 B miss", miss.Serialize(), 3)
	send("merge B", back(b), portNF)
}
