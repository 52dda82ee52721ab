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

// icmpInput handles one ICMP message (interrupt level).  Entered
// lock-free from ipInput; the reply output and the ping-waiter map take
// the stack lock.
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
		s.mu.Lock()
		s.ipOutput(r, s.ifIP, src, ProtoICMP, 0)
		s.mu.Unlock()
	case icmpEchoReply:
		s.sc.icmpEchoRepIn.Inc()
		seq := binary.BigEndian.Uint16(buf[6:8])
		s.mu.Lock()
		if w := s.pings[seq]; w != nil {
			w.done = true
			w.rtt = s.g.Ticks() - w.sent
			delete(s.pings, seq)
			s.g.Wakeup(w.event)
		}
		s.mu.Unlock()
	}
}

// Ping sends one echo request and blocks (process level) until the reply
// or a timeout in slow-timer ticks of the clock; it returns the RTT in
// clock ticks.
func (s *Stack) Ping(dst IPAddr, seq uint16, payload []byte, timeoutTicks uint64) (uint64, bool) {
	restore := s.g.Enter("ping")
	defer restore()
	spl := s.g.Splnet()
	defer s.g.Splx(spl)

	buf := make([]byte, icmpHdrLen+len(payload))
	buf[0] = icmpEchoRequest
	binary.BigEndian.PutUint16(buf[4:6], 0x4f53) // "OS"
	binary.BigEndian.PutUint16(buf[6:8], seq)
	copy(buf[icmpHdrLen:], payload)
	csum := Checksum(buf, 0)
	binary.BigEndian.PutUint16(buf[2:4], csum)

	m := s.MGetHdr()
	if m == nil {
		return 0, false
	}
	if !m.Append(buf) {
		m.FreeChain()
		return 0, false
	}
	s.mu.Lock()
	if s.pings == nil {
		s.pings = map[uint16]*pingWaiter{}
	}
	w := &pingWaiter{event: s.newEvent(), sent: s.g.Ticks()}
	s.pings[seq] = w
	s.ipOutput(m, s.ifIP, dst, ProtoICMP, 0)
	s.mu.Unlock()

	cancel := s.g.Env().AfterTicks(timeoutTicks, func() {
		// Interrupt level: wake the sleeper; it notices !done.
		s.mu.Lock()
		if ww := s.pings[seq]; ww == w {
			delete(s.pings, seq)
			s.g.Wakeup(w.event)
		}
		s.mu.Unlock()
	})
	defer cancel()
	s.mu.Lock()
	for !w.done {
		if ww := s.pings[seq]; ww != w {
			s.mu.Unlock()
			return 0, false // timed out (or superseded)
		}
		p := s.g.SleepPrepare(w.event, "ping")
		s.mu.Unlock()
		s.g.SleepCommit(p)
		s.mu.Lock()
	}
	rtt := w.rtt
	s.mu.Unlock()
	return rtt, true
}
