// Package linuxnet is the kit's Linux-style TCP/IP stack: the
// *monolithic baseline* configuration of the paper's Tables 1 and 2
// ("Linux 2.0.29" row).  It is skbuff-native end to end: packets move
// between the protocol code and the donor Ethernet drivers as raw
// skbuffs with no component boundary, no BufIO conversion, and no glue
// dispatch — the thing the OSKit configuration is measured against.
//
// Protocol scope matches what the evaluation workloads need between two
// instances of itself: Ethernet framing, ARP, IPv4 (no fragmentation —
// the donor drivers carry MTU-sized segments), ICMP echo, UDP, and a
// compact TCP (handshake, cumulative ACK, fixed window, Go-Back-N
// retransmission on timeout, orderly close).  The wire format is
// standard, which the tests exploit by running it against the
// FreeBSD-derived stack.  Deviations from Linux 2.0 (no congestion
// control, no delayed ACK) are deliberate simplifications of a baseline
// and are recorded in DESIGN.md.
//
// Like the donor drivers, this code sees only the legacy.Kernel
// environment; it exports the standard Socket/SocketFactory COM
// interfaces at the top so the same application code (ttcp, rtcp) runs
// unchanged on every configuration.
package linuxnet

import (
	"encoding/binary"

	"oskit/internal/cksum"
	"oskit/internal/linux/legacy"
	"oskit/internal/stats"
)

// Protocol constants.
const (
	etherHdrLen = 14
	ipHdrLen    = 20
	tcpHdrLen   = 20
	udpHdrLen   = 8

	etherTypeIP  = 0x0800
	etherTypeARP = 0x0806

	protoICMP = 1
	protoTCP  = 6
	protoUDP  = 17

	mss = 1460
)

// Stack is one instance of the Linux networking code, bound directly to
// one donor net device.
type Stack struct {
	k   *legacy.Kernel
	dev *legacy.NetDevice

	ip, mask [4]byte
	arp      map[[4]byte]arpState

	tcbs  []*tcb
	udps  []*usock
	ipID  uint16
	seqNo uint32

	// Packet counters for the benchmark harness, kept in a com.Stats
	// set.  The stack sees only the legacy.Kernel environment (no
	// services registry), so whoever assembles the configuration
	// registers StatsSet() if it wants discovery.
	set     *stats.Set
	scTx    *stats.Counter
	scRx    *stats.Counter
	scNoSKB *stats.Counter
}

type arpState struct {
	mac   [6]byte
	valid bool
	held  *legacy.SKBuff
}

// NewStack attaches the protocol code to a device: it installs itself as
// the kernel's netif_rx and opens the device.
func NewStack(k *legacy.Kernel, dev *legacy.NetDevice, ip, mask [4]byte) (*Stack, error) {
	s := &Stack{k: k, dev: dev, ip: ip, mask: mask, arp: map[[4]byte]arpState{}, seqNo: 99000}
	s.set = stats.NewSet("linux_net")
	s.scTx = s.set.Counter("net.tx_packets")
	s.scRx = s.set.Counter("net.rx_packets")
	s.scNoSKB = s.set.Counter("net.skb_alloc_failures")
	k.NetifRx = s.netifRx
	if err := dev.Open(dev); err != nil {
		s.set.Release()
		return nil, err
	}
	return s, nil
}

// StatsSet exposes the stack's com.Stats export so the configuration
// assembler can register it in a services registry.  The stack keeps its
// own reference; the caller must AddRef (Register does) to hold one.
func (s *Stack) StatsSet() *stats.Set { return s.set }

// Counters reads the packet counters.  They are atomic (updated at
// interrupt level), so no donor cli/sti exclusion is needed to read.
func (s *Stack) Counters() (tx, rx uint64) {
	return s.scTx.Load(), s.scRx.Load()
}

// netifRx is the interrupt-level input: a raw skbuff straight from the
// driver.
func (s *Stack) netifRx(skb *legacy.SKBuff) {
	defer skb.Free()
	d := skb.Data
	if len(d) < etherHdrLen {
		return
	}
	s.scRx.Inc()
	etype := binary.BigEndian.Uint16(d[12:14])
	var src [6]byte
	copy(src[:], d[6:12])
	payload := d[etherHdrLen:]
	switch etype {
	case etherTypeARP:
		s.arpInput(payload, src)
	case etherTypeIP:
		s.ipInput(payload)
	}
}

// xmit builds the Ethernet header in the skbuff's headroom and hands it
// to the driver — donor representation the whole way.
func (s *Stack) xmit(skb *legacy.SKBuff, dst [6]byte, etype uint16) {
	h := skb.Push(etherHdrLen)
	copy(h[0:6], dst[:])
	copy(h[6:12], s.dev.MAC[:])
	binary.BigEndian.PutUint16(h[12:14], etype)
	for skb.Len < 60 { // pad runts
		skb.Put(1)[0] = 0
	}
	s.scTx.Inc()
	_ = s.dev.HardStartXmit(skb, s.dev)
}

// newSKB allocates an skbuff with header headroom plus tail slack for
// runt-frame padding.
func (s *Stack) newSKB(payload int) *legacy.SKBuff {
	skb := s.k.AllocSKB(payload + etherHdrLen + ipHdrLen + tcpHdrLen + 64)
	if skb == nil {
		s.scNoSKB.Inc()
		return nil
	}
	skb.Reserve(etherHdrLen + ipHdrLen + tcpHdrLen)
	return skb
}

// --- ARP.

func (s *Stack) arpInput(p []byte, etherSrc [6]byte) {
	if len(p) < 28 || binary.BigEndian.Uint16(p[6:8]) > 2 {
		return
	}
	op := binary.BigEndian.Uint16(p[6:8])
	var srcMAC [6]byte
	var srcIP, dstIP [4]byte
	copy(srcMAC[:], p[8:14])
	copy(srcIP[:], p[14:18])
	copy(dstIP[:], p[24:28])
	if srcMAC != etherSrc {
		// Sender-hardware field disagrees with the frame's source
		// station: corrupted or spoofed ARP (it has no checksum).
		// Learning it would poison the cache; drop.
		return
	}
	st := s.arp[srcIP]
	st.mac = srcMAC
	st.valid = true
	held := st.held
	st.held = nil
	s.arp[srcIP] = st
	if held != nil {
		s.xmit(held, srcMAC, etherTypeIP)
	}
	if op == 1 && dstIP == s.ip {
		reply := s.newSKB(28)
		if reply == nil {
			return
		}
		r := reply.Put(28)
		binary.BigEndian.PutUint16(r[0:2], 1)
		binary.BigEndian.PutUint16(r[2:4], etherTypeIP)
		r[4], r[5] = 6, 4
		binary.BigEndian.PutUint16(r[6:8], 2)
		copy(r[8:14], s.dev.MAC[:])
		copy(r[14:18], s.ip[:])
		copy(r[18:24], srcMAC[:])
		copy(r[24:28], srcIP[:])
		s.xmit(reply, srcMAC, etherTypeARP)
	}
}

func (s *Stack) arpResolve(dst [4]byte, skb *legacy.SKBuff) ([6]byte, bool) {
	if dst == [4]byte{255, 255, 255, 255} {
		return [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, true
	}
	st := s.arp[dst]
	if st.valid {
		return st.mac, true
	}
	if st.held != nil {
		st.held.Free()
	}
	st.held = skb
	s.arp[dst] = st
	req := s.newSKB(28)
	if req == nil {
		return [6]byte{}, false
	}
	r := req.Put(28)
	binary.BigEndian.PutUint16(r[0:2], 1)
	binary.BigEndian.PutUint16(r[2:4], etherTypeIP)
	r[4], r[5] = 6, 4
	binary.BigEndian.PutUint16(r[6:8], 1)
	copy(r[8:14], s.dev.MAC[:])
	copy(r[14:18], s.ip[:])
	copy(r[24:28], dst[:])
	s.xmit(req, [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, etherTypeARP)
	return [6]byte{}, false
}

// --- IP.

func (s *Stack) ipInput(p []byte) {
	if len(p) < ipHdrLen || p[0]>>4 != 4 {
		return
	}
	hlen := int(p[0]&0xf) * 4
	total := int(binary.BigEndian.Uint16(p[2:4]))
	if hlen < ipHdrLen || total < hlen || total > len(p) {
		return
	}
	if checksum(p[:hlen], 0) != 0 {
		return
	}
	var src, dst [4]byte
	copy(src[:], p[12:16])
	copy(dst[:], p[16:20])
	if dst != s.ip && dst != [4]byte{255, 255, 255, 255} {
		return
	}
	body := p[hlen:total]
	switch p[9] {
	case protoICMP:
		s.icmpInput(body, src)
	case protoUDP:
		s.udpInput(body, src, dst)
	case protoTCP:
		s.tcpInput(body, src, dst)
	}
}

// ipOutput prepends the IP header and resolves the next hop.  skb is
// consumed.
func (s *Stack) ipOutput(skb *legacy.SKBuff, dst [4]byte, proto byte) {
	h := skb.Push(ipHdrLen)
	s.ipID++
	h[0], h[1] = 0x45, 0
	binary.BigEndian.PutUint16(h[2:4], uint16(skb.Len))
	binary.BigEndian.PutUint16(h[4:6], s.ipID)
	binary.BigEndian.PutUint16(h[6:8], 0)
	h[8], h[9] = 64, proto
	h[10], h[11] = 0, 0
	copy(h[12:16], s.ip[:])
	copy(h[16:20], dst[:])
	binary.BigEndian.PutUint16(h[10:12], checksum(h[:ipHdrLen], 0))
	mac, ok := s.arpResolve(dst, skb)
	if !ok {
		return // held by ARP
	}
	s.xmit(skb, mac, etherTypeIP)
}

// --- ICMP echo.

func (s *Stack) icmpInput(p []byte, src [4]byte) {
	if len(p) < 8 || checksum(p, 0) != 0 {
		return
	}
	if p[0] == 8 { // echo request
		skb := s.newSKB(len(p))
		if skb == nil {
			return
		}
		r := skb.Put(len(p))
		copy(r, p)
		r[0] = 0
		r[2], r[3] = 0, 0
		binary.BigEndian.PutUint16(r[2:4], checksum(r, 0))
		s.ipOutput(skb, src, protoICMP)
	}
}

func checksum(data []byte, initial uint32) uint16 {
	return ^cksum.Fold(cksum.Add(initial, data, false))
}

func pseudo(src, dst [4]byte, proto byte, length int) uint32 {
	return cksum.Add(cksum.Add(uint32(proto)+uint32(length), src[:], false), dst[:], false)
}
