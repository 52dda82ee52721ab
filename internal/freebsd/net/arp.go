package bsdnet

import "encoding/binary"

// ARP: the address-resolution table with a bounded queue of held
// packets per unresolved entry, request/reply processing, and
// slow-timer aging.  The table lives under the stack lock.

const (
	arpHdrLen     = 28
	arpOpRequest  = 1
	arpOpReply    = 2
	arpEntryTTL   = 1200 // slow ticks: 10 minutes
	arpRetryTicks = 2    // slow ticks between re-requests
	// arpMaxHeld bounds the packets parked on one unresolved neighbour.
	// BSD holds one, so a burst of connects to a fresh neighbour lost
	// all but the last SYN to a retransmit timer.
	arpMaxHeld = 16
)

// arpEntry state lives under its stack's lock; entries have no
// backpointer, so the guard is type-qualified.
//
//oskit:guardedby Stack.mu
type arpEntry struct {
	mac   [6]byte
	valid bool
	age   uint32  // slow ticks since created
	held  []*Mbuf // IP packets waiting on resolution, oldest first
}

type arpTable struct {
	s       *Stack               //oskit:initonly
	entries map[IPAddr]*arpEntry //oskit:guardedby s.mu
}

func (t *arpTable) init(s *Stack) {
	t.s = s
	t.entries = map[IPAddr]*arpEntry{}
}

// resolve returns dst's MAC, or queues the IP packet m.  Only a new
// entry emits a request here; age re-requests once per retry period
// however many packets wait.  Called with the stack lock held.
func (t *arpTable) resolve(dst IPAddr, m *Mbuf) (mac [6]byte, ok bool) {
	if dst.IsBroadcast() {
		return [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, true
	}
	e := t.entries[dst]
	if e != nil && e.valid {
		return e.mac, true
	}
	fresh := e == nil
	if fresh {
		e = &arpEntry{}
		t.entries[dst] = e
	}
	if len(e.held) == arpMaxHeld {
		e.held[0].FreeChain()
		e.held = append(e.held[:0], e.held[1:]...)
		t.s.sc.arpHeldDrop.Inc()
	}
	e.held = append(e.held, m)
	if fresh {
		t.request(dst)
	}
	return [6]byte{}, false
}

// request broadcasts "who-has dst".  Called with the stack lock held.
func (t *arpTable) request(dst IPAddr) {
	s := t.s
	m := s.MGetHdr()
	if m == nil {
		return
	}
	pkt := make([]byte, arpHdrLen)
	packARP(pkt, arpOpRequest, s.ifMAC, s.ifIP, [6]byte{}, dst)
	if !m.Append(pkt) {
		m.FreeChain()
		return
	}
	s.sc.arpOut.Inc()
	s.etherOutput(m, [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EtherTypeARP)
}

// arpInput handles one ARP frame (interrupt level).  etherSrc is the
// frame's link-header source station.  Parsing is lock-free; the cache
// update and the output it releases run under the stack lock.
func (s *Stack) arpInput(m *Mbuf, etherSrc [6]byte) {
	m = m.Pullup(arpHdrLen)
	if m == nil {
		return
	}
	p := m.Data()[:arpHdrLen]
	defer m.FreeChain()
	if binary.BigEndian.Uint16(p[0:2]) != 1 || // hardware: ethernet
		binary.BigEndian.Uint16(p[2:4]) != EtherTypeIP ||
		p[4] != 6 || p[5] != 4 {
		return
	}
	op := binary.BigEndian.Uint16(p[6:8])
	var srcMAC [6]byte
	copy(srcMAC[:], p[8:14])
	var srcIP, dstIP IPAddr
	copy(srcIP[:], p[14:18])
	copy(dstIP[:], p[24:28])
	s.sc.arpIn.Inc()

	// The sender-hardware field must agree with the station that put the
	// frame on the wire.  ARP carries no checksum, so a payload bit flip
	// the link layer let through (or a spoofed frame) would otherwise
	// poison the cache with a MAC nobody answers to — a black hole that
	// lasts until the entry ages out.  The Ethernet header is the part of
	// the frame the fabric itself addresses by, so it is the trustworthy
	// copy of the sender's station.
	if srcMAC != etherSrc {
		s.sc.arpBadSender.Inc()
		return
	}

	// Learn the sender (merge step of the RFC 826 algorithm), and
	// release what waited on it.
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.arp.entries[srcIP]
	if e == nil {
		e = &arpEntry{}
		s.arp.entries[srcIP] = e
	}
	e.mac = srcMAC
	e.valid = true
	e.age = 0
	held := e.held
	e.held = nil
	for _, h := range held {
		s.etherOutput(h, srcMAC, EtherTypeIP)
	}

	if op == arpOpRequest && dstIP == s.ifIP {
		r := s.MGetHdr()
		if r == nil {
			return
		}
		pkt := make([]byte, arpHdrLen)
		packARP(pkt, arpOpReply, s.ifMAC, s.ifIP, srcMAC, srcIP)
		if !r.Append(pkt) {
			r.FreeChain()
			return
		}
		s.sc.arpOut.Inc()
		s.etherOutput(r, srcMAC, EtherTypeARP)
	}
}

// age expires entries and re-requests unresolved ones (slow timer).
// Called with the stack lock held.
func (t *arpTable) age() {
	for ip, e := range t.entries {
		e.age++
		switch {
		case e.valid && e.age > arpEntryTTL:
			delete(t.entries, ip)
		case !e.valid && e.age%arpRetryTicks == 0 && len(e.held) > 0:
			if e.age > 10*arpRetryTicks {
				// Give up: drop the held packets (BSD returned
				// EHOSTDOWN to the next sender).
				for _, h := range e.held {
					h.FreeChain()
				}
				t.s.sc.arpDropUnreach.Add(uint64(len(e.held)))
				delete(t.entries, ip)
				continue
			}
			t.request(ip)
		}
	}
}

func packARP(p []byte, op uint16, sMAC [6]byte, sIP IPAddr, tMAC [6]byte, tIP IPAddr) {
	binary.BigEndian.PutUint16(p[0:2], 1)
	binary.BigEndian.PutUint16(p[2:4], EtherTypeIP)
	p[4], p[5] = 6, 4
	binary.BigEndian.PutUint16(p[6:8], op)
	copy(p[8:14], sMAC[:])
	copy(p[14:18], sIP[:])
	copy(p[18:24], tMAC[:])
	copy(p[24:28], tIP[:])
}
