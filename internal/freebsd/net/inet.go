// Package bsdnet is the kit's FreeBSD-derived TCP/IP protocol stack
// (paper §3.7): Ethernet framing, ARP, IPv4 with fragmentation and
// reassembly, ICMP echo, UDP, and TCP with retransmission, RTT
// estimation, slow start, congestion avoidance and fast retransmit —
// "generally considered to have much more mature network protocols" than
// the Linux of the day, which is why the OSKit paired BSD networking with
// Linux drivers (§3.7) and why this package talks to *any* driver purely
// through NetIO/BufIO (§4.7.3).
//
// Internally the stack is mbuf-native: packets are chains of small mbufs
// and 2 KB clusters, possibly discontiguous.  At the component boundary
// the glue exports chains as BufIO objects whose Map only succeeds for
// single-run ranges (a small segment is one mbuf, a bulk one a header
// mbuf plus clusters); the resulting copy of bulk data on the transmit
// path into skbuff-native drivers — and the absence of one on receive,
// where the driver's buffer is wrapped and, for TCP segments of at least
// mclMin bytes, linked into the socket buffer as it is (pinning at
// most 4 × the buffer's limit) — is exactly the Table 1 asymmetry.
//
// The stack runs under the blocking execution model of §4.7.4: protocol
// processing happens at "splnet" (interrupt exclusion), socket calls
// block with tsleep/wakeup through the BSD glue.
package bsdnet

import (
	"encoding/binary"

	"oskit/internal/cksum"
)

// IPAddr is an IPv4 address in wire (big-endian) byte order.
type IPAddr [4]byte

// Uint32 returns the address as a host integer for hashing/compares.
func (a IPAddr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// IsBroadcast reports the limited broadcast address.
func (a IPAddr) IsBroadcast() bool { return a == IPAddr{255, 255, 255, 255} }

// String renders dotted quad.
func (a IPAddr) String() string {
	var b []byte
	for i, v := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = appendDec(b, uint64(v))
	}
	return string(b)
}

func appendDec(b []byte, v uint64) []byte {
	if v >= 10 {
		b = appendDec(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Ethernet types.
const (
	EtherTypeIP  = 0x0800
	EtherTypeARP = 0x0806
)

// Checksum computes the Internet checksum over data with an initial
// partial sum (for pseudo-headers).  RFC 1071; the summing itself is
// the kit's one kernel, internal/cksum.
func Checksum(data []byte, initial uint32) uint16 {
	return ^cksum.Fold(cksum.Add(initial, data, false))
}

// pseudoSum folds the TCP/UDP pseudo-header into a partial sum.
func pseudoSum(src, dst IPAddr, proto int, length int) uint32 {
	return cksum.Add(cksum.Add(uint32(proto)+uint32(length), src[:], false), dst[:], false)
}
