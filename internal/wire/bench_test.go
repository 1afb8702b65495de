package wire

import (
	"net"
	"sync/atomic"
	"testing"

	"github.com/payloadpark/payloadpark/internal/packet"
)

// benchFrame builds one serialized 1024-byte UDP frame.
func benchFrame(id uint16) []byte {
	return packet.NewBuilder(wGenMAC, wNFMAC).UDP(wFlow, 1024, id).Serialize()
}

// BenchmarkWireParse measures the scratch-reuse frame parse the daemons
// and the live fabric run per received frame.
func BenchmarkWireParse(b *testing.B) {
	frame := benchFrame(1)
	var pkt packet.Packet
	var udp packet.UDP
	var tcp packet.TCP
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.UDP, pkt.TCP = &udp, &tcp
		if err := packet.ParseAtInto(&pkt, frame, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSerialize measures re-serialization into a reused buffer,
// the per-frame cost on the send side.
func BenchmarkWireSerialize(b *testing.B) {
	frame := benchFrame(1)
	pkt, err := packet.ParseAt(frame, -1)
	if err != nil {
		b.Fatal(err)
	}
	var out []byte
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = pkt.AppendSerialize(out[:0])
	}
	_ = out
}

// benchPair binds two loopback UDP sockets wired at each other.
func benchPair(b *testing.B) (tx, rx *net.UDPConn, rxAddr *net.UDPAddr) {
	b.Helper()
	mk := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	tx, rx = mk(), mk()
	b.Cleanup(func() { tx.Close(); rx.Close() })
	return tx, rx, rx.LocalAddr().(*net.UDPAddr)
}

// BenchmarkWireBurstDrain measures the burst read: a full burst is
// queued as one datagram, then read back. Reported per frame.
func BenchmarkWireBurstDrain(b *testing.B) {
	tx, rx, rxAddr := benchPair(b)
	frame := benchFrame(1)
	br := NewBurstReader(rx, DefaultBurst)
	var burst []byte
	for i := 0; i < DefaultBurst; i++ {
		burst = appendFrame(burst, frame)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	got := 0
	for got < b.N {
		queue := min(DefaultBurst, b.N-got)
		if _, err := tx.WriteToUDP(burst[:queue*(lenPrefix+len(frame))], rxAddr); err != nil {
			b.Fatal(err)
		}
		n, err := br.Read()
		if err != nil || n != queue {
			b.Fatalf("Read = %d, %v; want %d frames", n, err, queue)
		}
		got += n
	}
}

// BenchmarkWireSendPerFrame is the pre-batching send path: a fresh buffer
// serialized and written immediately for every frame, one per datagram.
func BenchmarkWireSendPerFrame(b *testing.B) {
	tx, _, rxAddr := benchPair(b)
	frame := benchFrame(1)
	pkt, err := packet.ParseAt(frame, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := pkt.AppendSerialize(make([]byte, 0, MaxFrame))
		if _, err := tx.WriteToUDP(appendFrame(nil, out), rxAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSendBatched is the BatchSender path: a burst's frames are
// serialized back to back into one reused buffer and flushed together, as
// one datagram.
func BenchmarkWireSendBatched(b *testing.B) {
	tx, _, rxAddr := benchPair(b)
	frame := benchFrame(1)
	pkt, err := packet.ParseAt(frame, -1)
	if err != nil {
		b.Fatal(err)
	}
	bs := NewBatchSender(tx)
	var sent atomic.Uint64
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Commit(pkt.AppendSerialize(bs.Begin()), rxAddr, &sent)
		if bs.Pending() == DefaultBurst {
			if errs := bs.Flush(); errs != 0 {
				b.Fatalf("%d send errors", errs)
			}
		}
	}
	bs.Flush()
}
