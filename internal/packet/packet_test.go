package packet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	testSrcMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	testDstMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	testFT     = FiveTuple{
		SrcIP:    IPv4Addr{10, 0, 0, 1},
		DstIP:    IPv4Addr{10, 0, 0, 2},
		SrcPort:  12345,
		DstPort:  80,
		Protocol: IPProtoUDP,
	}
)

func buildUDP(t testing.TB, size int) *Packet {
	t.Helper()
	return NewBuilder(testSrcMAC, testDstMAC).UDP(testFT, size, 7)
}

func TestUDPRoundTrip(t *testing.T) {
	for _, size := range []int{42, 64, 256, 384, 512, 882, 1024, 1492} {
		p := buildUDP(t, size)
		if p.Len() != size {
			t.Fatalf("built size = %d, want %d", p.Len(), size)
		}
		frame := p.Serialize()
		got, err := ParseAt(frame, -1)
		if err != nil {
			t.Fatalf("Parse(%d bytes): %v", size, err)
		}
		if !bytes.Equal(got.Serialize(), frame) {
			t.Errorf("round trip mismatch at size %d", size)
		}
		if got.FiveTuple() != testFT {
			t.Errorf("five tuple = %v, want %v", got.FiveTuple(), testFT)
		}
	}
}

func TestParsePPRoundTrip(t *testing.T) {
	p := buildUDP(t, 512)
	p.PP = &PPHeader{
		Enabled: true,
		Op:      PPOpMerge,
		Tag:     Tag{TableIndex: 1000, Clock: 42}.Seal(),
	}
	frame := p.Serialize()
	got, err := ParseAt(frame, 0)
	if err != nil {
		t.Fatalf("Parse with PP: %v", err)
	}
	if got.PP == nil {
		t.Fatal("PP header lost in round trip")
	}
	if *got.PP != *p.PP {
		t.Errorf("PP = %+v, want %+v", *got.PP, *p.PP)
	}
	if !got.PP.Tag.Valid() {
		t.Error("tag CRC invalid after round trip")
	}
	if !bytes.Equal(got.Serialize(), frame) {
		t.Error("byte-level mismatch")
	}
}

func TestParseRejectsMalformedPP(t *testing.T) {
	p := buildUDP(t, 512)
	p.PP = &PPHeader{Enabled: true, Tag: Tag{TableIndex: 9, Clock: 9}.Seal()}
	frame := p.Serialize()
	frame[EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen] |= 0x15 // dirty ALIGN bits
	if _, err := ParseAt(frame, 0); !errors.Is(err, ErrBadPPHeader) {
		t.Errorf("err = %v, want ErrBadPPHeader", err)
	}
}

func TestParseErrors(t *testing.T) {
	p := buildUDP(t, 200)
	frame := p.Serialize()

	tests := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"eth only", frame[:10], ErrTruncated},
		{"cut ip", frame[:EthernetHeaderLen+4], ErrTruncated},
		{"cut udp", frame[:EthernetHeaderLen+IPv4HeaderLen+3], ErrTruncated},
	}
	for _, tc := range tests {
		if _, err := ParseAt(tc.frame, -1); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	bad := append([]byte(nil), frame...)
	bad[12], bad[13] = 0x86, 0xdd // IPv6 ethertype
	if _, err := ParseAt(bad, -1); !errors.Is(err, ErrNotIPv4) {
		t.Errorf("non-IPv4: err = %v, want ErrNotIPv4", err)
	}

	bad = append([]byte(nil), frame...)
	bad[EthernetHeaderLen] = 4<<4 | 6 // IHL 6: options
	if _, err := ParseAt(bad, -1); !errors.Is(err, ErrIPv4Options) {
		t.Errorf("options: err = %v, want ErrIPv4Options", err)
	}

	bad = append([]byte(nil), frame...)
	bad[EthernetHeaderLen+9] = 47 // GRE
	if _, err := ParseAt(bad, -1); !errors.Is(err, ErrUnknownL4) {
		t.Errorf("GRE: err = %v, want ErrUnknownL4", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4},
		IP: IPv4{
			TotalLength: uint16(IPv4HeaderLen + TCPHeaderLen + 100),
			TTL:         64,
			Protocol:    IPProtoTCP,
			Src:         testFT.SrcIP,
			Dst:         testFT.DstIP,
		},
		TCP:     &TCP{SrcPort: 443, DstPort: 55000, Seq: 1 << 30, Ack: 99, Flags: 0x18, Window: 65535},
		Payload: bytes.Repeat([]byte{0xab}, 100),
	}
	p.IP.UpdateChecksum()
	frame := p.Serialize()
	got, err := ParseAt(frame, -1)
	if err != nil {
		t.Fatalf("Parse TCP: %v", err)
	}
	if got.TCP == nil || *got.TCP != *p.TCP {
		t.Errorf("TCP header mismatch: %+v vs %+v", got.TCP, p.TCP)
	}
	if !bytes.Equal(got.Serialize(), frame) {
		t.Error("TCP round trip bytes differ")
	}
}

func TestIPv4Checksum(t *testing.T) {
	p := buildUDP(t, 100)
	if !p.IP.ChecksumValid() {
		t.Fatal("builder produced invalid IP checksum")
	}
	p.IP.TTL--
	if p.IP.ChecksumValid() {
		t.Fatal("checksum still valid after TTL change")
	}
	p.IP.UpdateChecksum()
	if !p.IP.ChecksumValid() {
		t.Fatal("UpdateChecksum did not fix checksum")
	}
}

// TestChecksumRFC1071Example checks against the classic worked example.
func TestChecksumRFC1071Example(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestIncrementalChecksumMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewBuilder(testSrcMAC, testDstMAC).UDP(testFT, 100+rng.Intn(1000), uint16(rng.Int()))
		newSrc := IPv4AddrFrom(rng.Uint32())
		newDst := IPv4AddrFrom(rng.Uint32())
		p.SetSrcIP(newSrc)
		p.SetDstIP(newDst)
		return p.IP.ChecksumValid() && p.IP.Src == newSrc && p.IP.Dst == newDst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetPortsUpdatesUDPChecksumIncrementally(t *testing.T) {
	p := buildUDP(t, 300)
	// Give the packet a real UDP checksum over pseudo-header+payload.
	p.UDP.Checksum = 0x1234
	before := p.UDP.Checksum
	p.SetPorts(1111, 2222)
	if p.UDP.SrcPort != 1111 || p.UDP.DstPort != 2222 {
		t.Fatal("ports not set")
	}
	if p.UDP.Checksum == before {
		t.Error("UDP checksum not updated")
	}
	// Reversing the rewrite must restore the original checksum: incremental
	// updates are an involution over field swaps.
	p.SetPorts(testFT.SrcPort, testFT.DstPort)
	if p.UDP.Checksum != before {
		t.Errorf("checksum = %#x after undo, want %#x", p.UDP.Checksum, before)
	}
}

func TestSetPortsLeavesZeroUDPChecksum(t *testing.T) {
	p := buildUDP(t, 300)
	p.UDP.Checksum = 0 // checksum disabled: must stay disabled
	p.SetPorts(5, 6)
	if p.UDP.Checksum != 0 {
		t.Errorf("zero UDP checksum was modified to %#x", p.UDP.Checksum)
	}
}

func TestTagCRC(t *testing.T) {
	tag := Tag{TableIndex: 512, Clock: 9999}.Seal()
	if !tag.Valid() {
		t.Fatal("sealed tag invalid")
	}
	tamper := tag
	tamper.TableIndex++
	if tamper.Valid() {
		t.Error("tag with modified index still valid")
	}
	tamper = tag
	tamper.Clock ^= 0x8000
	if tamper.Valid() {
		t.Error("tag with modified clock still valid")
	}
}

func TestTagCRCProperty(t *testing.T) {
	f := func(ti, clk, flip uint16) bool {
		tag := Tag{TableIndex: ti, Clock: clk}.Seal()
		if !tag.Valid() {
			return false
		}
		if flip == 0 {
			return true
		}
		// Any single-bit-pattern corruption of index or clock must be caught.
		bad := tag
		bad.TableIndex ^= flip
		if bad.Valid() && flip != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPHeaderAllFieldCombos(t *testing.T) {
	for _, enb := range []bool{false, true} {
		for _, op := range []PPOp{PPOpMerge, PPOpExplicitDrop} {
			h := PPHeader{Enabled: enb, Op: op, Tag: Tag{TableIndex: 3, Clock: 4}.Seal()}
			var buf [PPHeaderLen]byte
			h.Marshal(buf[:])
			var got PPHeader
			if err := got.Unmarshal(buf[:]); err != nil {
				t.Fatalf("unmarshal enb=%t op=%d: %v", enb, op, err)
			}
			if got != h {
				t.Errorf("round trip enb=%t op=%d: got %+v", enb, op, got)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildUDP(t, 500)
	p.PP = &PPHeader{Enabled: true, Tag: Tag{TableIndex: 1, Clock: 2}.Seal()}
	c := p.Clone()
	c.UDP.SrcPort = 1
	c.PP.Tag.Clock = 77
	c.Payload[0] ^= 0xff
	c.IP.TTL = 1
	if p.UDP.SrcPort == 1 || p.PP.Tag.Clock == 77 || p.IP.TTL == 1 {
		t.Error("clone shares header state with original")
	}
	if p.Payload[0] == c.Payload[0] {
		t.Error("clone shares payload bytes")
	}
}

func TestBuilderDeterministicPayload(t *testing.T) {
	b := NewBuilder(testSrcMAC, testDstMAC)
	p1 := b.UDP(testFT, 512, 9)
	p2 := b.UDP(testFT, 512, 9)
	if !bytes.Equal(p1.Payload, p2.Payload) {
		t.Error("same id produced different payloads")
	}
	p3 := b.UDP(testFT, 512, 10)
	if bytes.Equal(p1.Payload, p3.Payload) {
		t.Error("different ids produced identical payloads")
	}
}

// TestBuilderPayloadProperties pins what the template payloads promise:
// a payload is a pure function of (builder seed, flow, id, size); packets
// of different flows or ids differ within their first 8 bytes (so inside
// any parked region); and a built payload is a private copy — scribbling
// over it changes neither the template nor the next packet built.
func TestBuilderPayloadProperties(t *testing.T) {
	other := testFT
	other.SrcIP = IPv4Addr{10, 0, 0, 3}
	otherPort := testFT
	otherPort.SrcPort++
	pristine := fillPayload(0)
	b, twin := NewBuilder(testSrcMAC, testDstMAC), NewBuilder(testSrcMAC, testDstMAC)
	reused := &Packet{}
	for size := HeaderUnitLen; size <= 1500; size++ {
		id := uint16(size * 7)
		p := b.UDP(testFT, size, id)
		if got := len(p.Payload); got != size-HeaderUnitLen {
			t.Fatalf("size %d: payload is %d bytes", size, got)
		}
		if q := twin.UDPInto(reused, testFT, size, id); !bytes.Equal(p.Payload, q.Payload) {
			t.Fatalf("size %d: same (seed, flow, id, size) built different payloads", size)
		}
		if n := len(p.Payload); n >= 8 {
			for what, q := range map[string]*Packet{
				"id":       b.UDP(testFT, size, id+1),
				"src ip":   b.UDP(other, size, id),
				"src port": b.UDP(otherPort, size, id),
			} {
				if bytes.Equal(p.Payload[:8], q.Payload[:8]) {
					t.Fatalf("size %d: a different %s left the first 8 payload bytes equal", size, what)
				}
			}
		}
		// The payload is the packet's own: wipe it, then build again.
		want := append([]byte(nil), p.Payload...)
		for i := range p.Payload {
			p.Payload[i] = 0xee
		}
		for i := range reused.Payload {
			reused.Payload[i] = 0xee
		}
		if again := b.UDP(testFT, size, id); !bytes.Equal(again.Payload, want) {
			t.Fatalf("size %d: mutating a built payload changed the next packet built", size)
		}
	}
	if !bytes.Equal(template, pristine) {
		t.Fatal("built payloads alias the template: it changed under mutation")
	}
	// The template has far fewer windows than a flow has ids: only the
	// stamp keeps two ids that share a window apart.
	seen := make(map[[8]byte]int, 1<<16)
	for id := 0; id < 1<<16; id++ {
		var head [8]byte
		copy(head[:], b.UDPInto(reused, testFT, 300, uint16(id)).Payload)
		if prev, dup := seen[head]; dup {
			t.Fatalf("ids %d and %d of one flow start with the same 8 payload bytes", prev, id)
		}
		seen[head] = id
	}

	// TCP cuts from the same template; a payload longer than the template
	// wraps around it.
	tp1, tp2 := b.TCP(testFT, 600, 1, 9), twin.TCP(testFT, 600, 1, 9)
	if !bytes.Equal(tp1.Payload, tp2.Payload) || bytes.Equal(tp1.Payload[:8], b.TCP(testFT, 600, 1, 10).Payload[:8]) {
		t.Error("TCP payloads are not a function of (flow, id)")
	}
	if jumbo := b.UDP(testFT, 9000, 1); len(jumbo.Payload) != 9000-HeaderUnitLen ||
		bytes.Equal(jumbo.Payload[templateLen:templateLen+64], make([]byte, 64)) {
		t.Error("a payload longer than the template was not filled to its end")
	}
}

// TestUDPIntoAllocFree: rebuilding into a recycled packet reuses its UDP
// struct and payload capacity, whatever size came before.
func TestUDPIntoAllocFree(t *testing.T) {
	b := NewBuilder(testSrcMAC, testDstMAC)
	p := b.UDP(testFT, 1500, 1)
	id := uint16(1)
	if allocs := testing.AllocsPerRun(200, func() {
		id++
		b.UDPInto(p, testFT, HeaderUnitLen+int(id)*7%1459, id)
	}); allocs != 0 {
		t.Errorf("UDPInto allocates %.1f/packet into a recycled packet, want 0", allocs)
	}
}

// TestUDPIntoReusesSplitBufferAlloc: a split cuts the parked front off a
// packet's payload (the deparser's Payload[park:]); rebuilding the packet
// at its full size refills the buffer the cut left, without making one.
func TestUDPIntoReusesSplitBufferAlloc(t *testing.T) {
	b := NewBuilder(testSrcMAC, testDstMAC)
	p := b.UDP(testFT, 1500, 1)
	id := uint16(1)
	if allocs := testing.AllocsPerRun(200, func() {
		p.Payload = p.Payload[160:]
		id++
		b.UDPInto(p, testFT, 1500, id)
	}); allocs != 0 {
		t.Errorf("rebuilding a split packet allocates %.1f/packet, want 0", allocs)
	}
	if !bytes.Equal(p.Payload, b.UDP(testFT, 1500, id).Payload) {
		t.Error("the rebuilt payload differs from a fresh one")
	}
}

// TestAppendSerializeGrowsGeometricallyAllocs: a batch buffer filled frame
// by frame from nil — 32 frames of 1500 bytes — grows a handful of times,
// not once per frame.
func TestAppendSerializeGrowsGeometricallyAllocs(t *testing.T) {
	p := NewBuilder(testSrcMAC, testDstMAC).UDP(testFT, 1500, 1)
	if allocs := testing.AllocsPerRun(20, func() {
		var buf []byte
		for i := 0; i < 32; i++ {
			buf = p.AppendSerialize(buf)
		}
	}); allocs > 7 {
		t.Errorf("32 appended frames allocate %.0f times, want at most 7", allocs)
	}
}

func TestBuilderMinimumSize(t *testing.T) {
	p := NewBuilder(testSrcMAC, testDstMAC).UDP(testFT, 10, 0)
	if p.Len() != HeaderUnitLen {
		t.Errorf("undersized request built %d bytes, want %d", p.Len(), HeaderUnitLen)
	}
	if len(p.Payload) != 0 {
		t.Errorf("payload len = %d, want 0", len(p.Payload))
	}
}

func TestHeaderLenWithPP(t *testing.T) {
	p := buildUDP(t, 512)
	base := p.HeaderLen()
	if base != HeaderUnitLen {
		t.Fatalf("header len = %d, want %d", base, HeaderUnitLen)
	}
	p.PP = &PPHeader{}
	if p.HeaderLen() != HeaderUnitLen+PPHeaderLen {
		t.Errorf("header len with PP = %d, want %d", p.HeaderLen(), HeaderUnitLen+PPHeaderLen)
	}
}

func TestParsePropertyRandomSizes(t *testing.T) {
	f := func(sz uint16, id uint16) bool {
		size := 42 + int(sz)%1459 // 42..1500
		p := NewBuilder(testSrcMAC, testDstMAC).UDP(testFT, size, id)
		frame := p.Serialize()
		got, err := ParseAt(frame, -1)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Serialize(), frame) && got.Len() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	if got := testSrcMAC.String(); got != "02:00:00:00:00:01" {
		t.Errorf("MAC string = %q", got)
	}
	if got := (IPv4Addr{192, 168, 1, 200}).String(); got != "192.168.1.200" {
		t.Errorf("IP string = %q", got)
	}
	p := buildUDP(t, 100)
	if p.String() == "" {
		t.Error("packet String empty")
	}
	p.PP = &PPHeader{Enabled: true}
	if p.String() == "" {
		t.Error("packet String with PP empty")
	}
}

func BenchmarkParseUDP(b *testing.B) {
	frame := buildUDP(b, 882).Serialize()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseAt(frame, -1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeUDP(b *testing.B) {
	p := buildUDP(b, 882)
	buf := make([]byte, p.Len())
	b.SetBytes(int64(p.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.serializeTo(buf)
	}
}

// TestTruncationErrorsUnchanged holds the one-check decoder to the
// per-header decoder it replaced: every truncation, 0..49 bytes, of an
// Ethernet/IPv4/{UDP,TCP} frame carrying a PayloadPark header at offset 0
// and at 32 returns the error value and text that decoder returned, as
// recorded from it in want.
func TestTruncationErrorsUnchanged(t *testing.T) {
	const (
		eth = "ethernet header: packet: truncated"
		ip  = "ipv4 header: packet: truncated"
		udp = "udp header: packet: truncated"
		tcp = "tcp header: packet: truncated"
	)
	type span struct {
		to   int // the last length the error covers
		text string
	}
	want := map[string][]span{
		"udp/0":  {{13, eth}, {33, ip}, {41, udp}, {48, "payloadpark header at offset 0: packet: truncated"}, {49, ""}},
		"udp/32": {{13, eth}, {33, ip}, {41, udp}, {49, "payloadpark header at offset 32: packet: truncated"}},
		"tcp/0":  {{13, eth}, {33, ip}, {49, tcp}},
		"tcp/32": {{13, eth}, {33, ip}, {49, tcp}},
	}
	b := NewBuilder(testSrcMAC, testDstMAC)
	for _, l4 := range []string{"udp", "tcp"} {
		for _, k := range []int{0, 32} {
			p := b.UDP(testFT, 200, 7)
			if l4 == "tcp" {
				p = b.TCP(testFT, 200, 1, 7)
			}
			p.SetPP(PPHeader{Enabled: true, Tag: Tag{TableIndex: 9, Clock: 9}.Seal()})
			p.PPOffset = k
			frame := p.Serialize()
			spans := want[fmt.Sprintf("%s/%d", l4, k)]
			for n := 0; n < 50; n++ {
				for spans[0].to < n {
					spans = spans[1:]
				}
				_, err := ParseAt(frame[:n], k)
				switch w := spans[0].text; {
				case w == "" && err != nil:
					t.Errorf("%s PP at %d, %d bytes: %v, want no error", l4, k, n, err)
				case w != "" && (err == nil || err.Error() != w || !errors.Is(err, ErrTruncated)):
					t.Errorf("%s PP at %d, %d bytes: %v, want %q wrapping ErrTruncated", l4, k, n, err, w)
				}
			}
		}
	}
}
