package rmt

import (
	"bytes"
	"reflect"
	"testing"
)

// buildPoolPipe returns a pipe with a register-backed MAT in stage 0 that
// copies block 0 into its register (exercising the Ctx scratch) and a
// plain MAT in a later stage (exercising the compiled program's stage order).
func buildPoolPipe(t *testing.T) (*Pipeline, *Register) {
	t.Helper()
	p := NewPipeline("pool")
	p.Parser().ExtractPayloadBlocks(20, 8)
	reg := p.NewRegister(0, "r", 8, 4)
	p.AddMAT(0, &MAT{
		Name: "store0",
		Reg:  reg,
		Rules: []Rule{{
			Name:  "store",
			Conds: conds(t, Cond{Field: fld("meta.payload_ok"), Value: 1}),
			Action: func(c *Ctx) {
				c.RMW(0, func(cell []byte) { copy(cell, c.PHV.Park[:8]) })
			},
		}},
	})
	p.AddMAT(7, &MAT{
		Name: "mark",
		Rules: []Rule{{
			Name:   "mark",
			Action: func(c *Ctx) { c.PHV.SetMeta(7, c.PHV.GetMeta(7)+1) },
		}},
	})
	return p, reg
}

// TestAcquireReleaseReusesPHV holds the pool to what callers rely on: a
// released PHV comes back as its last pass left it, and after FillPHV it
// carries nothing from that pass — it equals a fresh PHV filled alike.
func TestAcquireReleaseReusesPHV(t *testing.T) {
	p, _ := buildPoolPipe(t)
	phv := p.AcquirePHV()
	p.Parser().FillPHV(phv, testPkt(t, 300), 3)
	if phv.GetMeta(MetaPayloadOK) != 1 || len(phv.Park) != 160 {
		t.Fatalf("FillPHV: payloadOK=%d park region=%d B", phv.GetMeta(MetaPayloadOK), len(phv.Park))
	}
	p.Process(phv)
	// Dirty every field a pass can write.
	phv.Headroom = make([]byte, 160, 512)
	phv.PrepareMergeBlocks(20, 8, 0)
	phv.MarkDrop("dirty")
	phv.Recirc, phv.Pass, phv.HdrScratch[3] = true, 1, 0xff
	p.ReleasePHV(phv)
	again := p.AcquirePHV()
	if again != phv {
		t.Fatal("free-list did not return the released PHV")
	}
	pkt := testPkt(t, 100)
	p.Parser().FillPHV(again, pkt, 5)
	fresh := &PHV{}
	p.Parser().FillPHV(fresh, pkt, 5)
	if !reflect.DeepEqual(again, fresh) {
		t.Errorf("pooled PHV after FillPHV:\n%+v\nfresh PHV after FillPHV:\n%+v", again, fresh)
	}
}

func TestProgramFollowsStageOrder(t *testing.T) {
	p := NewPipeline("order")
	var got []string
	mk := func(name string) *MAT {
		return &MAT{Name: name, Rules: []Rule{{
			Name:   "hit",
			Action: func(*Ctx) { got = append(got, name) },
		}}}
	}
	// Insert out of stage order: the compiled program must still execute
	// stages in order (and MATs within a stage in insertion order).
	p.AddMAT(5, mk("s5a"))
	p.AddMAT(1, mk("s1"))
	p.AddMAT(5, mk("s5b"))
	p.AddMAT(0, mk("s0"))
	phv := p.AcquirePHV()
	p.Parser().FillPHV(phv, testPkt(t, 100), 0)
	p.Process(phv)
	want := []string{"s0", "s1", "s5a", "s5b"}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}
}

func TestPrepareMergeBlocksHeadroom(t *testing.T) {
	p, _ := buildPoolPipe(t)
	// Simulate the frame path: payload sits at offset 160 of a backing
	// buffer, the headroom in front absorbs the parked blocks.
	buf := make([]byte, 160+64)
	payload := buf[160:]
	for i := range payload {
		payload[i] = byte(i)
	}
	pkt := testPkt(t, 100)
	pkt.Payload = payload

	phv := p.AcquirePHV()
	p.Parser().FillPHV(phv, pkt, 0)
	phv.Headroom = buf[:160]
	region := phv.PrepareMergeBlocks(20, 8, 0)
	if len(region) != 160 || &region[0] != &phv.Park[0] {
		t.Fatalf("region = %d B, want the PHV's 160 B park region", len(region))
	}
	for i := range region {
		region[i] = byte(0xA0 + i/8)
	}
	merged := phv.FinishMerge()
	if len(merged) != 160+64 {
		t.Fatalf("merged len = %d, want %d", len(merged), 160+64)
	}
	if &merged[0] != &buf[0] {
		t.Error("headroom merge did not reassemble in place")
	}
	for i := 0; i < 160; i++ {
		if merged[i] != byte(0xA0+i/8) {
			t.Fatalf("merged[%d] = %#x, want block pattern", i, merged[i])
		}
	}
	if !bytes.Equal(merged[160:], payload) {
		t.Error("payload tail corrupted by in-place merge")
	}
}

func TestPrepareMergeBlocksFallback(t *testing.T) {
	p, _ := buildPoolPipe(t)
	pkt := testPkt(t, 100)
	phv := p.AcquirePHV()
	p.Parser().FillPHV(phv, pkt, 0)
	// No headroom: one buffer must hold prefix + parked region + tail.
	region := phv.PrepareMergeBlocks(4, 8, 3)
	for i := range region {
		region[i] = byte(0xB0 + i/8)
	}
	payload := pkt.Payload
	merged := phv.FinishMerge()
	if len(merged) != len(payload)+32 {
		t.Fatalf("merged len = %d, want %d", len(merged), len(payload)+32)
	}
	if !bytes.Equal(merged[:3], payload[:3]) {
		t.Error("visible prefix lost")
	}
	for i := 3; i < 35; i++ {
		if merged[i] != byte(0xB0+(i-3)/8) {
			t.Fatalf("merged[%d] = %#x, want block pattern", i, merged[i])
		}
	}
	if !bytes.Equal(merged[35:], payload[3:]) {
		t.Error("payload tail corrupted")
	}
}
