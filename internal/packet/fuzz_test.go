package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics throws random bytes at the parser: it must return
// an error or a packet, never panic — the switch faces arbitrary wire
// bytes.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(200)
		frame := make([]byte, n)
		rng.Read(frame)
		// Half the time, make the prefix plausible so parsing goes deeper.
		if i%2 == 0 && n >= 34 {
			frame[12], frame[13] = 0x08, 0x00 // IPv4 ethertype
			frame[14] = 4<<4 | 5              // v4, IHL 5
			if i%4 == 0 {
				frame[23] = 17 // UDP
			} else {
				frame[23] = 6 // TCP
			}
		}
		for _, ppOffset := range []int{-1, 0} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("ParseAt panicked on %d random bytes (ppOffset=%d): %v", n, ppOffset, r)
					}
				}()
				p, err := ParseAt(frame, ppOffset)
				if err == nil && p == nil {
					t.Fatal("nil packet with nil error")
				}
				if err == nil {
					// Whatever parsed must reserialize without panicking.
					p.Serialize()
				}
			}()
		}
	}
}

// TestParseAtArbitraryOffsets fuzzes the decoupling-boundary parser.
func TestParseAtArbitraryOffsets(t *testing.T) {
	f := func(extra uint16, off uint8, id uint16) bool {
		size := 42 + int(extra)%1400
		k := int(off) % 128
		p := NewBuilder(testSrcMAC, testDstMAC).UDP(testFT, size, id)
		if len(p.Payload) < k {
			return true // offset beyond payload: not a valid construction
		}
		p.PP = &PPHeader{Enabled: true, Tag: Tag{TableIndex: 7, Clock: 9}.Seal()}
		p.PPOffset = k
		frame := p.Serialize()
		got, err := ParseAt(frame, k)
		if err != nil {
			return false
		}
		if got.PP == nil || !got.PP.Enabled || got.PPOffset != k {
			return false
		}
		// Round trip is identity.
		out := got.Serialize()
		if len(out) != len(frame) {
			return false
		}
		for i := range out {
			if out[i] != frame[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParseAtTruncationSafe: offsets beyond the frame must error cleanly.
func TestParseAtTruncationSafe(t *testing.T) {
	p := NewBuilder(testSrcMAC, testDstMAC).UDP(testFT, 100, 1)
	frame := p.Serialize()
	for k := 0; k < 200; k++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseAt(%d) panicked: %v", k, r)
				}
			}()
			ParseAt(frame, k)
		}()
	}
}
