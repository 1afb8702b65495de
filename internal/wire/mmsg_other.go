//go:build !linux

package wire

import "net"

// mmsg is empty off linux: there is no batched socket call, so a receive
// burst is one datagram and Flush writes frame by frame.
type mmsg struct{}

func (m *mmsg) bind(*net.UDPConn, [][]byte) {}

// recv reads one datagram (Read drops the count with an error).
//
//pp:zeroalloc
func (b *BurstReader) recv() (int, error) {
	n, from, err := b.conn.ReadFromUDPAddrPort(b.bufs[0])
	b.sizes[0], b.from[0] = n, peerKey(from)
	return 1, err
}

func (s *BatchSender) flushFast() (errs int, handled bool) {
	return 0, false
}
