package bsdnet

import (
	"encoding/binary"

	bsdglue "oskit/internal/freebsd/glue"
)

// tcp_input: segment arrival processing.  Runs under the stack lock,
// usually at interrupt level straight from the driver's Push.

// tcpInput parses, validates, and processes one inbound segment.
func (s *Stack) tcpInput(m *Mbuf, src, dst IPAddr) {
	tlen := m.PktLen
	m = m.Pullup(min(tlen, tcpHdrLen))
	if m == nil {
		return
	}
	if tlen < tcpHdrLen {
		m.FreeChain()
		return
	}
	// Verify the checksum over the whole segment.
	if s.chainChecksum(m, pseudoSum(src, dst, ProtoTCP, tlen)) != 0 {
		s.sc.tcpDropBadCsum.Inc()
		m.FreeChain()
		return
	}
	h := m.Data()[:tcpHdrLen]
	var seg tcpSeg
	sport := binary.BigEndian.Uint16(h[0:2])
	dport := binary.BigEndian.Uint16(h[2:4])
	seg.seq = binary.BigEndian.Uint32(h[4:8])
	seg.ack = binary.BigEndian.Uint32(h[8:12])
	off := int(h[12]>>4) * 4
	seg.flags = h[13]
	seg.wnd = binary.BigEndian.Uint16(h[14:16])
	if off < tcpHdrLen || off > tlen {
		m.FreeChain()
		return
	}
	// Options (MSS only).
	if off > tcpHdrLen {
		if m = m.Pullup(off); m == nil {
			return
		}
		opts := m.Data()[tcpHdrLen:off]
		for i := 0; i < len(opts); {
			switch opts[i] {
			case 0: // EOL
				i = len(opts)
			case 1: // NOP
				i++
			case 2: // MSS
				if i+4 <= len(opts) && opts[i+1] == 4 {
					seg.mss = binary.BigEndian.Uint16(opts[i+2 : i+4])
				}
				i += 4
			default:
				if i+1 >= len(opts) || opts[i+1] < 2 {
					i = len(opts)
				} else {
					i += int(opts[i+1])
				}
			}
		}
	}
	// The payload stays where the driver put it: the segment carries the
	// received chain, header trimmed off (m_adj).  What no receive buffer
	// or reassembly queue takes is still in seg afterwards, and the
	// deferred seg.free drops it.
	dataLen := tlen - off
	if dataLen > 0 {
		m.Adj(off)
		seg.m = m
	} else {
		m.FreeChain()
	}
	s.sc.tcpSegsIn.Inc()
	s.sc.tcpRxBytes.Observe(uint64(dataLen))

	defer seg.free()
	tp := s.tcpLookup(dst, dport, src, sport)
	// TIME_WAIT reincarnation (the 4.4BSD rule): a fresh SYN with a
	// sequence beyond the old connection's window kills the lingering
	// pcb and goes to the listener, so a reused client port can connect
	// again immediately.
	if tp != nil && !tp.listening && tp.state == tcpsTimeWait &&
		seg.flags&thSYN != 0 && seqGT(seg.seq, tp.rcvNxt) {
		s.tcpDetach(tp)
		tp = s.tcpLookup(dst, dport, src, sport)
	}
	if tp == nil {
		// No socket: RST unless the segment itself is an RST.
		if seg.flags&thRST == 0 {
			s.respondToOrphan(src, sport, dst, dport, seg, dataLen)
		}
		return
	}
	if tp.listening {
		s.tcpInputListen(tp, seg, src, sport, dst, dport)
		return
	}
	s.tcpInputConn(tp, &seg, dataLen)
}

func (s *Stack) respondToOrphan(src IPAddr, sport uint16, dst IPAddr, dport uint16, seg tcpSeg, dataLen int) {
	if seg.flags&thACK != 0 {
		s.tcpRespond(dst, dport, src, sport, seg.ack, 0, thRST, 0)
	} else {
		add := uint32(dataLen)
		if seg.flags&thSYN != 0 {
			add++
		}
		if seg.flags&thFIN != 0 {
			add++
		}
		s.tcpRespond(dst, dport, src, sport, 0, seg.seq+add, thRST|thACK, 0)
	}
}

// tcpInputListen handles segments addressed to a listening socket.
// Called with the stack lock held.
func (s *Stack) tcpInputListen(lp *tcpcb, seg tcpSeg, src IPAddr, sport uint16, dst IPAddr, dport uint16) {
	if seg.flags&thRST != 0 {
		return
	}
	if seg.flags&thACK != 0 {
		s.tcpRespond(dst, dport, src, sport, seg.ack, 0, thRST, 0)
		return
	}
	if seg.flags&thSYN == 0 {
		return
	}
	if len(lp.acceptQ) >= lp.backlog || len(lp.synQ) > lp.backlog+lp.backlog/2 {
		// Listen queue full: drop the SYN silently (no RST — FreeBSD
		// behaviour: the client retransmits and may find room later) but
		// account for it, so a saturated backlog shows up in the stats
		// instead of masquerading as wire loss.
		s.sc.tcpAcceptOvfl.Inc()
		return
	}
	// Passive open: manufacture the connection pcb.
	tp := s.tcpNew()
	tp.laddr, tp.lport = dst, dport
	tp.faddr, tp.fport = src, sport
	if err := s.tcpRegisterConn(tp); err != nil {
		// 4-tuple already taken (stale twin not yet reaped): drop.
		s.tcpDetach(tp)
		return
	}
	s.tcpPorts[dport]++
	tp.parent = lp
	lp.synQ = append(lp.synQ, tp)
	tp.refcnt = 1 // owned by the listener until accepted
	tp.irs = seg.seq
	tp.rcvNxt = seg.seq + 1
	tp.rcvAdv = tp.rcvNxt + tp.rcvWindow()
	if seg.mss != 0 && uint32(seg.mss) < tp.maxSeg {
		tp.maxSeg = uint32(seg.mss)
	}
	tp.cwnd = tp.initialWindow()
	tp.iss = s.newISS()
	tp.sndUna, tp.sndNxt, tp.sndMax = tp.iss, tp.iss, tp.iss
	tp.sndWnd = uint32(seg.wnd)
	tp.state = tcpsSynRcvd
	tp.timers[tKeep] = 150 // 75 s handshake timeout, BSD style
	s.tcpOutput(tp)        // sends SYN|ACK
}

// tcpInputConn is the established-path processing (simplified RFC 793 +
// the BSD congestion machinery).  Called with the stack lock held.
func (s *Stack) tcpInputConn(tp *tcpcb, seg *tcpSeg, dataLen int) {
	// RST processing.
	if seg.flags&thRST != 0 {
		if seqGEQ(seg.seq, tp.rcvNxt-1) && seqLT(seg.seq, tp.rcvNxt+tp.rcvWindow()+1) {
			tp.drop(bsdglue.ECONNRESET)
		}
		return
	}

	switch tp.state {
	case tcpsSynSent:
		if seg.flags&thACK != 0 && (seqLEQ(seg.ack, tp.iss) || seqGT(seg.ack, tp.sndMax)) {
			s.tcpRespond(tp.laddr, tp.lport, tp.faddr, tp.fport, seg.ack, 0, thRST, 0)
			return
		}
		if seg.flags&thSYN == 0 {
			return
		}
		tp.irs = seg.seq
		tp.rcvNxt = seg.seq + 1
		if seg.mss != 0 && uint32(seg.mss) < tp.maxSeg {
			tp.maxSeg = uint32(seg.mss)
		}
		tp.cwnd = tp.initialWindow()
		tp.sndWnd = uint32(seg.wnd)
		if seg.flags&thACK != 0 {
			// Active open completed.
			tp.sndUna = seg.ack
			tp.timers[tRexmt] = 0
			tp.rxtShift = 0
			tp.state = tcpsEstablished
			tp.rcvAdv = tp.rcvNxt + tp.rcvWindow()
			s.g.Wakeup(tp.connEvent)
			s.tcpRespondACK(tp)
		} else {
			// Simultaneous open.
			tp.state = tcpsSynRcvd
			s.tcpOutput(tp)
		}
		return
	}

	// Trim to the receive window: drop old data, clip beyond-window.
	if dataLen > 0 || seg.flags&(thSYN|thFIN) != 0 {
		if seqLT(seg.seq, tp.rcvNxt) {
			// Wholly or partly old.
			dup := int(tp.rcvNxt - seg.seq)
			if seg.flags&thSYN != 0 {
				seg.flags &^= thSYN
				seg.seq++
				dup--
			}
			if dup >= dataLen {
				// Entirely duplicate: ack it again (the peer may have
				// lost our ACK), then continue with ACK processing.
				s.sc.tcpDropDup.Inc()
				seg.free()
				seg.flags &^= thFIN
				s.tcpRespondACK(tp)
				dataLen = 0
				seg.seq = tp.rcvNxt
			} else {
				seg.m.Adj(dup)
				dataLen -= dup
				seg.seq = tp.rcvNxt
			}
		}
		if wnd := tp.rcvWindow(); dataLen > 0 && seqGT(seg.seq+uint32(dataLen), tp.rcvNxt+wnd) {
			over := int(seg.seq + uint32(dataLen) - (tp.rcvNxt + wnd))
			if over >= dataLen {
				// Entirely outside: ack and drop.
				s.sc.tcpDropWnd.Inc()
				s.tcpRespondACK(tp)
				return
			}
			seg.m.Adj(-over)
			dataLen -= over
			seg.flags &^= thFIN
		}
	}

	// ACK processing.
	if seg.flags&thACK != 0 {
		s.tcpProcessACK(tp, seg)
		if tp.state == tcpsClosed {
			return
		}
	}

	// Window update (RFC 793 SND.WND rules).
	if seg.flags&thACK != 0 &&
		(seqLT(tp.sndWL1, seg.seq) ||
			(tp.sndWL1 == seg.seq && seqLEQ(tp.sndWL2, seg.ack))) {
		tp.sndWnd = uint32(seg.wnd)
		tp.sndWL1 = seg.seq
		tp.sndWL2 = seg.ack
		// A window opening may unblock the sender.
		s.g.Wakeup(tp.sndBuf.event)
		s.tcpOutput(tp)
	}

	// Data processing.
	if dataLen > 0 {
		s.tcpReceiveData(tp, seg)
	}

	// FIN processing.
	if seg.flags&thFIN != 0 && seg.seq+uint32(dataLen) == tp.rcvNxt {
		// In-order FIN.
		tp.rcvNxt++
		s.g.Wakeup(tp.rcvBuf.event) // readers see EOF
		switch tp.state {
		case tcpsSynRcvd, tcpsEstablished:
			tp.state = tcpsCloseWait
		case tcpsFinWait1:
			tp.state = tcpsClosing
		case tcpsFinWait2:
			s.tcpEnterTimeWait(tp)
		}
		s.tcpRespondACK(tp)
	}
}

// tcpProcessACK handles the acknowledgment field: RTT measurement,
// dupacks/fast retransmit, send-buffer release, state advance.  Called
// with the stack lock held.
func (s *Stack) tcpProcessACK(tp *tcpcb, seg *tcpSeg) {
	if tp.state == tcpsSynRcvd {
		if seqLT(seg.ack, tp.iss+1) || seqGT(seg.ack, tp.sndMax) {
			s.tcpRespond(tp.laddr, tp.lport, tp.faddr, tp.fport, seg.ack, 0, thRST, 0)
			return
		}
		// Handshake complete.
		tp.state = tcpsEstablished
		tp.sndUna = seg.ack
		tp.timers[tRexmt] = 0
		tp.timers[tKeep] = 0
		tp.rxtShift = 0
		tp.sndWnd = uint32(seg.wnd)
		tp.sndWL1 = seg.seq
		tp.sndWL2 = seg.ack
		if p := tp.parent; p != nil {
			removePCB(&p.synQ, tp)
			if len(p.acceptQ) >= p.backlog {
				// The accept queue filled while the handshake was in
				// flight; this completion has nowhere to go.  Reset the
				// peer and account it as an overflow.
				s.sc.tcpAcceptOvfl.Inc()
				tp.usrAbort()
				return
			}
			p.acceptQ = append(p.acceptQ, tp)
			s.g.Wakeup(p.acceptEvent)
		}
		return
	}

	if seqLEQ(seg.ack, tp.sndUna) {
		// Duplicate ACK.  Fast retransmit after three, BSD style.
		if seg.m == nil && seg.ack == tp.sndUna && tp.sndBuf.cc > 0 &&
			uint32(seg.wnd) == tp.sndWnd {
			tp.dupacks++
			if tp.dupacks == 3 {
				onxt := tp.sndNxt
				flight := tp.sndMax - tp.sndUna
				half := flight / 2
				if half < 2*tp.maxSeg {
					half = 2 * tp.maxSeg
				}
				tp.ssthresh = half
				tp.timers[tRexmt] = 0
				tp.rtt = 0
				tp.sndNxt = tp.sndUna
				tp.cwnd = tp.maxSeg
				s.sc.tcpRexmt.Inc()
				s.tcpOutput(tp)
				tp.cwnd = tp.ssthresh + 3*tp.maxSeg
				if seqGT(onxt, tp.sndNxt) {
					tp.sndNxt = onxt
				}
			} else if tp.dupacks > 3 {
				tp.cwnd += tp.maxSeg
				s.tcpOutput(tp)
			}
		} else {
			tp.dupacks = 0
		}
		return
	}
	if seqGT(seg.ack, tp.sndMax) {
		s.tcpRespondACK(tp)
		return
	}

	// New data acked.
	if tp.dupacks >= 3 {
		// Leave fast recovery.
		if tp.cwnd > tp.ssthresh {
			tp.cwnd = tp.ssthresh
		}
	}
	tp.dupacks = 0

	// RTT update (Karn: only when the timed sequence is covered and no
	// retransmission happened).
	if tp.rtt > 0 && seqGT(seg.ack, tp.rtseq) && tp.rxtShift == 0 {
		tp.updateRTT(tp.rtt)
	}

	acked := seg.ack - tp.sndUna
	// Congestion window growth: slow start below ssthresh, else linear.
	if tp.cwnd < tp.ssthresh {
		tp.cwnd += tp.maxSeg
	} else {
		incr := tp.maxSeg * tp.maxSeg / tp.cwnd
		if incr == 0 {
			incr = 1
		}
		tp.cwnd += incr
	}
	if tp.cwnd > 65535 {
		tp.cwnd = 65535
	}

	// Release acked bytes (the SYN and FIN occupy sequence space but not
	// buffer space).
	bufAcked := int(acked)
	seqSpace := 0
	if tp.sndUna == tp.iss {
		seqSpace++ // SYN
	}
	finSeq := tp.sentFin && seg.ack == tp.sndMax
	if finSeq {
		seqSpace++
	}
	bufAcked -= seqSpace
	if bufAcked > tp.sndBuf.cc {
		bufAcked = tp.sndBuf.cc
	}
	if bufAcked > 0 {
		tp.sndBuf.drop(bufAcked)
		s.g.Wakeup(tp.sndBuf.event)
	}
	tp.sndUna = seg.ack
	if seqLT(tp.sndNxt, tp.sndUna) {
		tp.sndNxt = tp.sndUna
	}

	// Retransmit timer: restart if data remains, else stop.
	tp.rxtShift = 0
	if tp.sndUna == tp.sndMax {
		tp.timers[tRexmt] = 0
	} else {
		tp.timers[tRexmt] = tp.rexmtTimeout()
	}

	// State advance on FIN acknowledgment.
	allAcked := tp.sndUna == tp.sndMax
	switch tp.state {
	case tcpsFinWait1:
		if tp.sentFin && allAcked {
			tp.state = tcpsFinWait2
		}
	case tcpsClosing:
		if tp.sentFin && allAcked {
			s.tcpEnterTimeWait(tp)
		}
	case tcpsLastAck:
		if tp.sentFin && allAcked {
			s.tcpDetach(tp)
			tp.wakeAll()
			return
		}
	}
}

// tcpReceiveData moves in-order data (and any newly contiguous
// reassembly segments) into the receive buffer, or queues an
// out-of-order segment, taking seg.m.  Called with the stack lock held,
// inside a receive entry whose rxFlush completes in-order data.
func (s *Stack) tcpReceiveData(tp *tcpcb, seg *tcpSeg) {
	dataLen := seg.m.PktLen
	if seg.seq == tp.rcvNxt &&
		(tp.state == tcpsEstablished || tp.state == tcpsFinWait1 || tp.state == tcpsFinWait2) {
		// Delayed ACK (RFC 1122 §4.2.3.2, counted in segments as BSD
		// does): the first in-order segment only sets delack, so the ACK
		// can ride this side's next segment; a second one finds it set
		// and the ACK is due.  A segment that fills a hole is ACKed at
		// once, so the sender learns of the repair without waiting.
		due := tp.delack || len(tp.reass) > 0
		tp.delack = true
		tp.rcvBuf.appendSeg(seg.m)
		seg.m = nil
		tp.rcvNxt += uint32(dataLen)
		// Drain the reassembly queue while contiguous.
		for len(tp.reass) > 0 && seqLEQ(tp.reass[0].seq, tp.rcvNxt) {
			q := &tp.reass[0]
			if over := int(tp.rcvNxt - q.seq); over < q.m.PktLen {
				q.m.Adj(over)
				tp.rcvNxt += uint32(q.m.PktLen)
				tp.rcvBuf.appendSeg(q.m)
				q.m = nil
			}
			q.free()
			tp.reass = tp.reass[1:]
		}
		// Defer the wakeup, and a due ACK, to the receive entry's
		// rxFlush, one of each per connection.  Only the in-order path
		// defers: duplicate and out-of-order ACKs (below) must stay
		// immediate for fast retransmit.
		if !tp.rxPendWake {
			tp.rxPendWake = true
			s.rxPend = append(s.rxPend, tp)
		} else {
			s.sc.rxAcksCoalesced.Inc()
		}
		tp.rxAckOwed = tp.rxAckOwed || due
		return
	}
	if seqGT(seg.seq, tp.rcvNxt) {
		// Out of order: insert sorted by seq, unless one queued segment
		// already covers it — a replaying peer cannot grow the queue.
		end := seg.seq + uint32(dataLen)
		i := 0
		for ; i < len(tp.reass); i++ {
			q := &tp.reass[i]
			if seqLT(seg.seq, q.seq) {
				break
			}
			if seqGEQ(q.seq+uint32(q.m.PktLen), end) {
				s.sc.tcpDropDup.Inc()
				s.tcpRespondACK(tp)
				return
			}
		}
		if len(tp.reass) >= 4*tp.rcvBuf.hiwat/MCLBYTES {
			// Every entry pins a driver buffer however few bytes it carries:
			// past the receive buffer's own bound the sender retransmits.
			s.sc.tcpDropReass.Inc()
			s.tcpRespondACK(tp)
			return
		}
		tp.reass = append(tp.reass, tcpSeg{})
		copy(tp.reass[i+1:], tp.reass[i:])
		tp.reass[i] = tcpSeg{seq: seg.seq, m: seg.m}
		seg.m = nil
		s.sc.tcpOOO.Inc()
		// Duplicate ACK tells the sender what we still need.
		s.tcpRespondACK(tp)
	}
}

// tcpRespondACK sends a bare ACK reflecting the current receive state.
// Called with the stack lock held.
func (s *Stack) tcpRespondACK(tp *tcpcb) {
	// Any ACK reflects the latest rcvNxt, so a delayed or flush-deferred
	// ACK it would duplicate is no longer owed (the FIN the same segment
	// carries, a dup-ACK for a stale segment).  The deferred *wakeup*
	// stays owed.
	wnd := tp.rcvWindow()
	if s.tcpRespond(tp.laddr, tp.lport, tp.faddr, tp.fport, tp.sndNxt, tp.rcvNxt, thACK, wnd) {
		tp.ackSent()
		tp.rcvAdv = tp.rcvNxt + wnd
	}
}

// updateRTT is the Van Jacobson smoothed estimator, BSD scaling.
func (tp *tcpcb) updateRTT(rtt int) {
	if tp.srtt != 0 {
		delta := rtt - 1 - (tp.srtt >> 3)
		tp.srtt += delta
		if tp.srtt <= 0 {
			tp.srtt = 1
		}
		if delta < 0 {
			delta = -delta
		}
		delta -= tp.rttvar >> 2
		tp.rttvar += delta
		if tp.rttvar <= 0 {
			tp.rttvar = 1
		}
	} else {
		tp.srtt = rtt << 3
		tp.rttvar = rtt << 1
	}
	tp.rtt = 0
}

// rexmtTimeout computes the current RTO in slow ticks with backoff.
func (tp *tcpcb) rexmtTimeout() int {
	rto := (tp.srtt >> 3) + tp.rttvar
	if rto < tcpRexmtMin {
		rto = tcpRexmtMin
	}
	rto <<= tp.rxtShift
	if rto > tcpRexmtMax {
		rto = tcpRexmtMax
	}
	return rto
}
