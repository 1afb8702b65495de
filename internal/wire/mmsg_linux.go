//go:build linux

package wire

import (
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: one msghdr per
// datagram plus the byte count the kernel reports for it.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
}

// mmsg is one socket's scratch for recvmmsg(2) or sendmmsg(2): per
// datagram a header, an iovec and a sockaddr with room for either family,
// reused call to call. It caches the conn's raw wait loop, its family and
// the callback, each bound once, so a call allocates nothing.
type mmsg struct {
	wait  func(func(fd uintptr) bool) error // the raw conn's Read or Write
	fn    func(fd uintptr) bool             // m.loop
	sys   uintptr                           // SYS_RECVMMSG or sysSendmmsg
	v6    bool                              // AF_INET6 socket: destinations go out as (v4-mapped) IPv6
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	done  int // datagrams the current call has moved
	errno syscall.Errno
}

// bind caches conn's raw wait loop and family. With bufs it is a receive
// scratch, one header per buffer aimed at it and its sockaddr once;
// without, a send scratch that grows with the batch.
func (m *mmsg) bind(conn *net.UDPConn, bufs [][]byte) {
	rc, _ := conn.SyscallConn()
	la, _ := conn.LocalAddr().(*net.UDPAddr)
	m.v6 = la != nil && la.IP.To4() == nil
	m.fn, m.sys, m.wait = m.loop, sysSendmmsg, rc.Write
	if bufs != nil {
		m.sys, m.wait = syscall.SYS_RECVMMSG, rc.Read
	}
	m.grow(len(bufs))
	for i, buf := range bufs {
		m.point(i, buf)
		m.hdrs[i].Hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
	}
}

// grow sizes the vectors to n datagrams, allocating past the high-water
// mark only, and out of line so flushFast carries none of that warm-up.
//
//go:noinline
func (m *mmsg) grow(n int) {
	if cap(m.hdrs) < n {
		m.hdrs = make([]mmsghdr, n)
		m.iovs = make([]syscall.Iovec, n)
		m.names = make([]syscall.RawSockaddrInet6, n)
	}
	m.hdrs, m.iovs, m.names = m.hdrs[:n], m.iovs[:n], m.names[:n]
}

// point aims datagram i's header at buf.
func (m *mmsg) point(i int, buf []byte) {
	m.iovs[i].Base = &buf[0]
	m.iovs[i].SetLen(len(buf))
	m.hdrs[i].Hdr.Iov, m.hdrs[i].Hdr.Iovlen = &m.iovs[i], 1
}

// call moves the batch of len(m.hdrs) datagrams through the raw handle's
// wait loop — parked in the netpoller while the socket is empty (or
// full), under the conn's deadlines — and returns how many moved.
//
//pp:zeroalloc
func (m *mmsg) call() (int, error) {
	m.done, m.errno = 0, 0
	err := m.wait(m.fn)
	if err == nil && m.errno != 0 {
		err = m.sysErr()
	}
	return m.done, err
}

// loop is the raw handle's callback: one batched syscall from the first
// datagram not yet moved. A receive returns what one call got; a send
// repeats until the kernel took the whole batch. false asks the netpoller
// to wait for the socket (EAGAIN).
//
//pp:zeroalloc
func (m *mmsg) loop(fd uintptr) bool {
	for {
		r, _, e := syscall.Syscall6(m.sys, fd, uintptr(unsafe.Pointer(&m.hdrs[m.done])),
			uintptr(len(m.hdrs)-m.done), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			m.done += int(r)
			if m.sys == syscall.SYS_RECVMMSG || m.done == len(m.hdrs) {
				return true
			}
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			// Hard error: the datagrams not yet moved are lost.
			m.errno = e
			return true
		}
	}
}

// sysErr names the failed syscall; it stays out of line, like grow, for
// the error path's allocation.
//
//go:noinline
func (m *mmsg) sysErr() error {
	if m.sys == syscall.SYS_RECVMMSG {
		return os.NewSyscallError("recvmmsg", m.errno)
	}
	return os.NewSyscallError("sendmmsg", m.errno)
}

// from decodes datagram i's source address, IPv4-mapped sources unmapped.
// Both sockaddr layouts hold the port, big-endian, at the same offset.
func (m *mmsg) from(i int) netip.AddrPort {
	sa := &m.names[i]
	port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
	switch sa.Family {
	case syscall.AF_INET:
		return netip.AddrPortFrom(netip.AddrFrom4((*syscall.RawSockaddrInet4)(unsafe.Pointer(sa)).Addr), port)
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
	}
	return netip.AddrPort{}
}

// to writes dst as datagram i's destination in the socket's family;
// false when the batch can't express it (an IPv6 destination on an IPv4
// socket, or a zone, which only the per-frame path resolves).
func (m *mmsg) to(i int, dst *net.UDPAddr) bool {
	sa, h := &m.names[i], &m.hdrs[i].Hdr
	ip, ip4 := dst.IP.To16(), dst.IP.To4()
	switch {
	case ip == nil || dst.Zone != "" || !m.v6 && ip4 == nil:
		return false
	case m.v6:
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: [16]byte(ip)}
		h.Namelen = syscall.SizeofSockaddrInet6
	default:
		*(*syscall.RawSockaddrInet4)(unsafe.Pointer(sa)) = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: [4]byte(ip4)}
		h.Namelen = syscall.SizeofSockaddrInet4
	}
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], uint16(dst.Port))
	h.Name = (*byte)(unsafe.Pointer(sa))
	return true
}

// recv reads one burst with recvmmsg(2): every datagram queued, up to the
// burst size. Each header's name length is in-out, so it is reset first.
//
//pp:zeroalloc
func (b *BurstReader) recv() (int, error) {
	m := &b.mm
	for i := range m.hdrs {
		m.hdrs[i].Hdr.Namelen = syscall.SizeofSockaddrInet6
	}
	n, err := m.call()
	for i := 0; i < n; i++ {
		b.sizes[i], b.from[i] = int(m.hdrs[i].Len), m.from(i)
	}
	return n, err
}

// flushFast sends every pending frame with sendmmsg(2): one syscall per
// batch instead of one per frame. Returns handled=false (nothing sent)
// when the batch can't be expressed for this socket, in which case Flush
// falls back to per-frame writes; frames the kernel did not accept are
// errors.
//
//pp:zeroalloc
func (s *BatchSender) flushFast() (errs int, handled bool) {
	m := &s.mm
	if sysSendmmsg == 0 {
		return 0, false
	}
	m.grow(len(s.marks))
	start := 0
	for i := range s.marks {
		mk := &s.marks[i]
		if !m.to(i, mk.dst) {
			return 0, false
		}
		m.point(i, s.buf[start:mk.end])
		start = mk.end
	}
	sent, err := m.call()
	if err != nil && sent == 0 {
		return 0, false
	}
	for i := 0; i < sent; i++ {
		if c := s.marks[i].ok; c != nil {
			c.Add(1)
		}
	}
	return len(s.marks) - sent, true
}

// sysSendmmsg is the sendmmsg(2) syscall number. The stdlib syscall
// package exports SYS_RECVMMSG but not SYS_SENDMMSG, so the number is
// supplied here for the architectures the repo targets; zero disables
// the fast path (Flush degrades to per-frame writes).
var sysSendmmsg = map[string]uintptr{
	"amd64": 307,
	"arm64": 269,
	"386":   345,
	"arm":   374,
}[runtime.GOARCH]
