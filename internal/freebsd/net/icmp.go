package bsdnet

import "encoding/binary"

// ICMP: echo request/reply — what the examples use for ping and what the
// stack answers so two simulated machines can see each other.

const (
	icmpEchoReply   = 0
	icmpEchoRequest = 8
	icmpHdrLen      = 8
)

// Ping state: sequence -> wakeup event for the blocked pinger.
type pingWaiter struct {
	event uint32
	done  bool
	rtt   uint64 // ticks
	sent  uint64
}

// icmpInput handles one ICMP message (interrupt level, under the stack
// lock).
func (s *Stack) icmpInput(m *Mbuf, src, dst IPAddr) {
	m = m.Pullup(icmpHdrLen)
	if m == nil {
		return
	}
	n := m.PktLen
	buf := make([]byte, n)
	m.CopyData(0, n, buf)
	m.FreeChain()
	if Checksum(buf, 0) != 0 {
		return
	}
	switch buf[0] {
	case icmpEchoRequest:
		s.sc.icmpEchoReqIn.Inc()
		buf[0] = icmpEchoReply
		buf[2], buf[3] = 0, 0
		csum := Checksum(buf, 0)
		binary.BigEndian.PutUint16(buf[2:4], csum)
		r := s.MGetHdr()
		if r == nil {
			return
		}
		if !r.Append(buf) {
			r.FreeChain()
			return
		}
		s.sc.icmpEchoRepOut.Inc()
		s.ipOutput(r, s.ifIP, src, ProtoICMP, 0)
	case icmpEchoReply:
		s.sc.icmpEchoRepIn.Inc()
		seq := binary.BigEndian.Uint16(buf[6:8])
		if w := s.pings[seq]; w != nil {
			w.done = true
			w.rtt = s.g.Ticks() - w.sent
			delete(s.pings, seq)
			s.g.Wakeup(w.event)
		}
	}
}

// pingSend sends one echo request and registers its waiter, or returns
// nil when no mbuf is free.  Called with the stack lock held.
func (s *Stack) pingSend(dst IPAddr, seq uint16, payload []byte) *pingWaiter {
	buf := make([]byte, icmpHdrLen+len(payload))
	buf[0] = icmpEchoRequest
	binary.BigEndian.PutUint16(buf[4:6], 0x4f53) // "OS"
	binary.BigEndian.PutUint16(buf[6:8], seq)
	copy(buf[icmpHdrLen:], payload)
	csum := Checksum(buf, 0)
	binary.BigEndian.PutUint16(buf[2:4], csum)

	m := s.MGetHdr()
	if m == nil {
		return nil
	}
	if !m.Append(buf) {
		m.FreeChain()
		return nil
	}
	if s.pings == nil {
		s.pings = map[uint16]*pingWaiter{}
	}
	w := &pingWaiter{event: s.newEvent(), sent: s.g.Ticks()}
	s.pings[seq] = w
	s.ipOutput(m, s.ifIP, dst, ProtoICMP, 0)
	return w
}

// pingExpire gives up on w, if it still waits for seq, and wakes its
// sleeper (timeout, interrupt level).  Called with the stack lock held.
func (s *Stack) pingExpire(seq uint16, w *pingWaiter) {
	if s.pings[seq] == w {
		delete(s.pings, seq)
		s.g.Wakeup(w.event)
	}
}
