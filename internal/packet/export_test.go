package packet

import (
	"encoding/binary"
)

// IPv4AddrFrom returns the address for a big-endian integer.
func IPv4AddrFrom(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}
