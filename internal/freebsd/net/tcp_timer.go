package bsdnet

import bsdglue "oskit/internal/freebsd/glue"

// TCP timers, BSD structure: per-pcb countdown slots decremented by the
// stack's slow timer (500 ms) at interrupt level.

// tcpSlowTimo ages every connection.  Called with the stack lock held.
//
// The sweep also sends every delayed ACK still pending, so no ACK waits
// longer than one sweep period (BSD runs a separate 200 ms fast timer
// for this; one pcb walk serves both here).
func (s *Stack) tcpSlowTimo() {
	// Copy the list: timer actions may detach pcbs.
	pcbs := append([]*tcpcb(nil), s.tcpPCBs...)
	for _, tp := range pcbs {
		if tp.delack {
			s.sc.tcpDelackTimeouts.Inc()
			s.tcpRespondACK(tp)
		}
		if tp.rtt > 0 {
			tp.rtt++ // active RTT measurement, in slow ticks
		}
		for i := 0; i < tcpNTimers; i++ {
			if tp.timers[i] > 0 {
				tp.timers[i]--
				if tp.timers[i] == 0 {
					s.tcpTimerFire(tp, i)
				}
			}
		}
	}
}

// tcpTimerFire runs one expired timer.  Called with the stack lock
// held.
func (s *Stack) tcpTimerFire(tp *tcpcb, which int) {
	switch which {
	case tRexmt:
		tp.rxtShift++
		if tp.rxtShift > tcpMaxRxtShift {
			tp.drop(bsdglue.ETIMEDOUT)
			return
		}
		s.sc.tcpRexmt.Inc()
		// Collapse the congestion window and retransmit from snd_una.
		flight := tp.sndMax - tp.sndUna
		half := flight / 2
		if half < 2*tp.maxSeg {
			half = 2 * tp.maxSeg
		}
		tp.ssthresh = half
		tp.cwnd = tp.maxSeg
		tp.dupacks = 0
		tp.rtt = 0 // Karn: don't time retransmitted data
		tp.sndNxt = tp.sndUna
		if tp.state == tcpsSynSent || tp.state == tcpsSynRcvd {
			// Re-send the SYN.
			tp.sentFin = false
		}
		tp.timers[tRexmt] = tp.rexmtTimeout()
		s.tcpOutput(tp)

	case tPersist:
		// Window probe: force a single byte past the window edge, and
		// back the next probe off as a retransmission would (BSD's
		// tcp_setpersist; RFC 1122 §4.2.2.17).
		s.tcpProbe(tp)
		if tp.sndBuf.cc > 0 && tp.sndWnd == 0 {
			tp.rxtShift = min(tp.rxtShift+1, tcpMaxRxtShift)
			tp.timers[tPersist] = tp.rexmtTimeout()
		}

	case tKeep:
		// Handshake never completed (or idle drop for SYN_RCVD).
		if tp.state == tcpsSynRcvd || tp.state == tcpsSynSent {
			tp.drop(bsdglue.ETIMEDOUT)
		}

	case t2MSL:
		s.tcpDetach(tp)
		tp.wakeAll()
	}
}

// tcpProbe transmits one byte of data beyond the closed window so the
// peer re-announces it (the persist state's zero-window probe).
func (s *Stack) tcpProbe(tp *tcpcb) {
	off := int(tp.sndNxt - tp.sndUna)
	if tp.sndBuf.cc <= off {
		return
	}
	var b [1]byte
	tp.sndBuf.head.CopyData(off, 1, b[:])
	m := s.mgetSeg(tcpHdrLen)
	if m == nil {
		return
	}
	if !m.Append(b[:]) {
		m.FreeChain()
		return
	}
	m = m.Prepend(tcpHdrLen)
	if m == nil {
		return
	}
	h := m.Data()[:tcpHdrLen]
	packTCPHeader(h, tp.lport, tp.fport, tp.sndNxt, tp.rcvNxt, thACK|thPSH, tp.rcvWindow())
	csum := s.chainChecksum(m, pseudoSum(tp.laddr, tp.faddr, ProtoTCP, m.PktLen))
	putU16(h[16:18], csum)
	tp.ackSent()
	s.sc.tcpSegsOut.Inc()
	s.ipOutput(m, tp.laddr, tp.faddr, ProtoTCP, 0)
}

func putU16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }

// armPersistIfNeeded starts the persist timer when the window closed
// with data pending and nothing in flight (called from tcp_output and
// the socket write path, stack lock held).
func (tp *tcpcb) armPersistIfNeeded() {
	if tp.sndWnd == 0 && tp.sndBuf.cc > 0 && tp.timers[tPersist] == 0 && tp.timers[tRexmt] == 0 {
		tp.timers[tPersist] = tp.rexmtTimeout()
	}
}
