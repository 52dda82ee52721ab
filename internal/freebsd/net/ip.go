package bsdnet

import "encoding/binary"

// IPv4: input validation, reassembly, output with fragmentation and the
// one-interface routing decision.

const (
	ipHdrLen  = 20
	ipDefTTL  = 64
	reasmTTL  = 30 // slow ticks a partial datagram may live
	ipFlagDF  = 0x4000
	ipFlagMF  = 0x2000
	ipOffMask = 0x1fff
)

// ipInput validates and demuxes one IP datagram (interrupt level, stack
// lock held).
func (s *Stack) ipInput(m *Mbuf) {
	m = m.Pullup(ipHdrLen)
	if m == nil {
		return
	}
	h := m.Data()[:ipHdrLen]
	if h[0]>>4 != 4 {
		m.FreeChain()
		return
	}
	hlen := int(h[0]&0xf) * 4
	if hlen < ipHdrLen {
		m.FreeChain()
		return
	}
	if m = m.Pullup(hlen); m == nil {
		return
	}
	h = m.Data()[:hlen]
	if Checksum(h, 0) != 0 {
		s.sc.ipBadCsum.Inc()
		m.FreeChain()
		return
	}
	total := int(binary.BigEndian.Uint16(h[2:4]))
	if total < hlen || total > m.PktLen {
		m.FreeChain()
		return
	}
	// Trim link-layer padding.
	if m.PktLen > total {
		m.Adj(-(m.PktLen - total))
	}

	var src, dst IPAddr
	copy(src[:], h[12:16])
	copy(dst[:], h[16:20])
	if dst != s.ifIP && !dst.IsBroadcast() {
		m.FreeChain() // not ours; the kit does no forwarding
		return
	}
	s.sc.ipIn.Inc()

	fragField := binary.BigEndian.Uint16(h[6:8])
	if fragField&(ipFlagMF|ipOffMask) != 0 {
		s.sc.ipFragsIn.Inc()
		m = s.reasmInput(m, h, src, dst, fragField)
		if m == nil {
			return // still incomplete
		}
		s.sc.ipReasmOK.Inc()
		h = m.Data()[:hlen]
	}

	proto := h[9]
	m.Adj(hlen)
	switch proto {
	case ProtoICMP:
		s.icmpInput(m, src, dst)
	case ProtoUDP:
		s.udpInput(m, src, dst)
	case ProtoTCP:
		s.tcpInput(m, src, dst)
	default:
		m.FreeChain()
	}
}

// ipOutput attaches an IP header and routes the datagram, fragmenting
// when it exceeds the interface MTU.  Called with the stack lock held.
func (s *Stack) ipOutput(m *Mbuf, src, dst IPAddr, proto int, ttl int) {
	if ttl == 0 {
		ttl = ipDefTTL
	}
	s.ipID++
	id := s.ipID
	payload := m.PktLen
	mtu := 1500

	if ipHdrLen+payload <= mtu {
		s.ipSendOne(m, src, dst, proto, ttl, id, 0, false)
		return
	}
	// Fragment: each fragment's payload is a multiple of 8 bytes.
	chunk := (mtu - ipHdrLen) &^ 7
	for off := 0; off < payload; off += chunk {
		n := payload - off
		more := false
		if n > chunk {
			n = chunk
			more = true
		}
		frag := m.CopyM(off, n)
		if frag == nil {
			break
		}
		s.ipSendOne(frag, src, dst, proto, ttl, id, uint16(off/8), more)
	}
	m.FreeChain()
}

func (s *Stack) ipSendOne(m *Mbuf, src, dst IPAddr, proto, ttl int, id uint16, fragOff uint16, more bool) {
	m = m.Prepend(ipHdrLen)
	if m == nil {
		return
	}
	h := m.Data()[:ipHdrLen]
	h[0] = 0x45
	h[1] = 0
	binary.BigEndian.PutUint16(h[2:4], uint16(m.PktLen))
	binary.BigEndian.PutUint16(h[4:6], id)
	frag := fragOff & ipOffMask
	if more {
		frag |= ipFlagMF
	}
	binary.BigEndian.PutUint16(h[6:8], frag)
	h[8] = byte(ttl)
	h[9] = byte(proto)
	h[10], h[11] = 0, 0
	copy(h[12:16], src[:])
	copy(h[16:20], dst[:])
	csum := Checksum(h, 0)
	binary.BigEndian.PutUint16(h[10:12], csum)

	nextHop, ok := s.route(dst)
	if !ok {
		s.sc.ipDropNoRoute.Inc()
		m.FreeChain()
		return
	}
	s.sc.ipOut.Inc()
	mac, resolved := s.arp.resolve(nextHop, m)
	if !resolved {
		return // held by ARP; sent on reply
	}
	s.etherOutput(m, mac, EtherTypeIP)
}

// --- reassembly.

type reasmKey struct {
	src, dst IPAddr
	id       uint16
	proto    byte
}

type reasmFrag struct {
	off  int
	last bool
	data []byte
}

type reasmQ struct {
	frags []reasmFrag
	age   uint32
	hdr   []byte // header of the first-seen fragment (offset 0 wins)
}

// reasmInput accumulates one fragment; when complete it returns a fresh
// chain holding header+payload, else nil.  m is consumed.  Called with
// the stack lock held (the reassembly map is stack-lock state).
func (s *Stack) reasmInput(m *Mbuf, h []byte, src, dst IPAddr, fragField uint16) *Mbuf {
	hlen := int(h[0]&0xf) * 4
	key := reasmKey{src: src, dst: dst, id: binary.BigEndian.Uint16(h[4:6]), proto: h[9]}
	q := s.ipReasm[key]
	if q == nil {
		q = &reasmQ{}
		s.ipReasm[key] = q
	}
	off := int(fragField&ipOffMask) * 8
	last := fragField&ipFlagMF == 0
	data := make([]byte, m.PktLen-hlen)
	m.CopyData(hlen, len(data), data)
	if off == 0 {
		q.hdr = append([]byte(nil), m.Data()[:hlen]...)
	}
	m.FreeChain()
	q.frags = append(q.frags, reasmFrag{off: off, last: last, data: data})

	// Complete?  Find total length from the last fragment, then check
	// coverage.
	total := -1
	for _, f := range q.frags {
		if f.last {
			total = f.off + len(f.data)
		}
	}
	if total < 0 || q.hdr == nil {
		return nil
	}
	assembled := make([]byte, total)
	covered := make([]bool, total)
	for _, f := range q.frags {
		if f.off+len(f.data) > total {
			return nil // inconsistent; wait for timeout
		}
		copy(assembled[f.off:], f.data)
		for i := f.off; i < f.off+len(f.data); i++ {
			covered[i] = true
		}
	}
	for _, c := range covered {
		if !c {
			return nil
		}
	}
	delete(s.ipReasm, key)

	out := s.MGetHdr()
	if out == nil {
		return nil
	}
	hdr := append([]byte(nil), q.hdr...)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(hdr)+total))
	binary.BigEndian.PutUint16(hdr[6:8], 0)
	if !out.Append(hdr) || !out.Append(assembled) {
		out.FreeChain()
		return nil
	}
	return out
}

// reasmAge drops stale partial datagrams (slow timer; stack lock held).
func (s *Stack) reasmAge() {
	for k, q := range s.ipReasm {
		q.age++
		if q.age > reasmTTL {
			delete(s.ipReasm, k)
		}
	}
}
