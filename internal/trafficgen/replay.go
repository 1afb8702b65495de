package trafficgen

import (
	"errors"
	"fmt"

	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/pcap"
)

// Source produces a packet stream; Generator and Replay both implement
// it, so testbeds can run synthetic or captured workloads
// interchangeably (the paper replays PCAP files, §6.1).
type Source interface {
	Next() *packet.Packet
}

// Replay replays the packets of a capture in order, looping at the end,
// with L2 addresses rewritten to the testbed topology (a capture's MACs
// belong to the network it was taken on). Retired packets handed back
// through Recycle are reused by Next, so replay at scale allocates
// nothing in steady state — the same contract the Generator offers.
type Replay struct {
	pkts []*packet.Packet
	idx  int
	pool []*packet.Packet
}

// ErrEmptyCapture reports a capture with no usable packets.
var ErrEmptyCapture = errors.New("trafficgen: capture holds no parseable packets")

// NewReplay parses a capture into a replayable stream. Frames that do not
// parse as Ethernet/IPv4/UDP|TCP are skipped, like any replay tool does.
func NewReplay(recs []pcap.Record, srcMAC, dstMAC packet.MAC) (*Replay, error) {
	r := &Replay{}
	for _, rec := range recs {
		p, err := packet.ParseAt(rec.Data, -1)
		if err != nil {
			continue
		}
		p.Eth.Src, p.Eth.Dst = srcMAC, dstMAC
		r.pkts = append(r.pkts, p)
	}
	if len(r.pkts) == 0 {
		return nil, ErrEmptyCapture
	}
	return r, nil
}

// Len returns the number of replayable packets in the capture.
func (r *Replay) Len() int { return len(r.pkts) }

// Next returns a clone of the next captured packet (clones, because the
// dataplane mutates packets in place). Recycled packets back the clone.
func (r *Replay) Next() *packet.Packet {
	src := r.pkts[r.idx]
	r.idx = (r.idx + 1) % len(r.pkts)
	if n := len(r.pool); n > 0 {
		p := r.pool[n-1]
		r.pool = r.pool[:n-1]
		return src.CloneInto(p)
	}
	return src.Clone()
}

// Recycle hands a retired packet back for reuse by Next. The caller must
// guarantee no other reference to the packet (or its payload) remains.
func (r *Replay) Recycle(p *packet.Packet) {
	if p == nil {
		return
	}
	r.pool = append(r.pool, p)
}

// WriteWorkload generates n packets from a Generator configuration and
// writes them as a pcap stream — how this repository materializes the
// Fig. 6 workload as a capture file.
func WriteWorkload(w *pcap.Writer, cfg Config, n int) error {
	g := New(cfg)
	var frame []byte // WritePacket keeps no reference to Data
	for i := 0; i < n; i++ {
		frame = g.AppendFrame(frame[:0])
		// Space timestamps 1 µs apart; replay tools re-pace anyway.
		if err := w.WritePacket(pcap.Record{TimestampNs: int64(i) * 1e3, Data: frame}); err != nil {
			return fmt.Errorf("trafficgen: write workload: %w", err)
		}
	}
	return nil
}
