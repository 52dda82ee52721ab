package bsdnet

import "encoding/binary"

// tcp_output: the send-side engine.  Decides how much may be sent
// (offered window vs congestion window), carves segments out of the send
// buffer *by sharing* cluster storage (CopyM), attaches headers, and
// ships each segment to IP.  As in the donor, all headers share one mbuf
// and a payload of up to segRoom bytes is copied into it; a larger one
// is that mbuf plus the send buffer's clusters — a chain whose BufIO Map
// fails — which is exactly where Table 1's send-path copy comes from.

// tcpOutput runs the sender once.  Called at splnet with tp.mu held
// (the send machinery is pure per-connection state; the transmit
// hand-off below it takes the TX lock).
func (s *Stack) tcpOutput(tp *tcpcb) {
	for {
		if !s.tcpOutputOnce(tp) {
			return
		}
	}
}

// tcpOutputOnce emits at most one segment, reporting whether the caller
// should try for another.
func (s *Stack) tcpOutputOnce(tp *tcpcb) bool {
	var flags byte = thACK
	switch tp.state {
	case tcpsClosed, tcpsListen, tcpsTimeWait:
		return false
	case tcpsSynSent:
		flags = thSYN
	case tcpsSynRcvd:
		flags = thSYN | thACK
	}

	off := int(tp.sndNxt - tp.sndUna)
	wnd := tp.sndWnd
	if tp.cwnd < wnd {
		wnd = tp.cwnd
	}

	// Sequence-space occupancy of a pending SYN.
	synPending := flags&thSYN != 0
	if synPending {
		off = 0
	}

	length := 0
	if !synPending {
		avail := tp.sndBuf.cc - off
		if avail < 0 {
			avail = 0
		}
		allowed := int(wnd) - off
		if allowed < 0 {
			allowed = 0
		}
		length = min(avail, allowed)
		if length > int(tp.maxSeg) {
			length = int(tp.maxSeg)
		}
		// Nagle: with unacked data in flight, hold small segments
		// unless NODELAY or a full segment is ready.
		if length > 0 && length < int(tp.maxSeg) &&
			tp.sndNxt != tp.sndUna && !tp.nodelay &&
			length < tp.sndBuf.cc-off {
			length = 0
		}
	}

	// FIN?
	finStates := tp.state == tcpsFinWait1 || tp.state == tcpsLastAck || tp.state == tcpsClosing
	sendFin := false
	if finStates && off+length == tp.sndBuf.cc {
		// All data (if any) fits through this point; FIN rides last.
		if !tp.sentFin || tp.sndNxt != tp.sndMax || length > 0 {
			sendFin = true
			flags |= thFIN
		}
	}

	if length == 0 && !synPending && !sendFin {
		tp.armPersistIfNeeded()
		return false
	}

	// Build the segment: a payload that fits is copied into the header
	// mbuf, a larger one shares the send buffer's clusters behind it.
	hdrLen := tcpHdrLen
	if synPending {
		hdrLen += 4 // MSS option
	}
	var m *Mbuf
	if length > segRoom(hdrLen) {
		m = tp.sndBuf.head.CopyM(off, length)
	} else if m = s.mgetSeg(hdrLen); m != nil {
		m.len = tp.sndBuf.head.CopyData(off, length, m.store[m.off:])
		m.PktLen = m.len
	}
	if m == nil {
		return false
	}
	if length > 0 && off+length == tp.sndBuf.cc {
		flags |= thPSH // the segment empties the send buffer
	}
	m = m.Prepend(hdrLen)
	if m == nil {
		return false
	}
	h := m.Data()[:hdrLen]
	seq := tp.sndNxt
	rcvWnd := tp.rcvWindow()
	ackSeq := tp.rcvNxt
	if tp.state == tcpsSynSent {
		ackSeq = 0
		flags &^= thACK
	}
	packTCPHeader(h, tp.lport, tp.fport, seq, ackSeq, flags, rcvWnd)
	if synPending {
		h[12] = byte(hdrLen/4) << 4
		h[20], h[21] = 2, 4
		binary.BigEndian.PutUint16(h[22:24], uint16(tp.maxSeg))
	}
	csum := s.chainChecksum(m, pseudoSum(tp.laddr, tp.faddr, ProtoTCP, m.PktLen))
	binary.BigEndian.PutUint16(h[16:18], csum)

	// Advance send state.
	adv := uint32(length)
	if synPending {
		adv++
	}
	if sendFin {
		adv++
		tp.sentFin = true
	}
	tp.sndNxt += adv
	if seqGT(tp.sndNxt, tp.sndMax) {
		tp.sndMax = tp.sndNxt
		// Time this segment if nothing is being timed.
		if tp.rtt == 0 {
			tp.rtt = 1
			tp.rtseq = seq
		}
	}
	if adv > 0 && tp.timers[tRexmt] == 0 {
		if tp.timers[tPersist] != 0 {
			// The window opened: the retransmit timer replaces the
			// probes, without their backoff.
			tp.timers[tPersist] = 0
			tp.rxtShift = 0
		}
		tp.timers[tRexmt] = tp.rexmtTimeout()
	}
	tp.rcvAdv = tp.rcvNxt + rcvWnd
	if flags&thACK != 0 {
		tp.ackSent() // the echo, the response: the ACK rides the data
	}

	s.sc.tcpSegsOut.Inc()
	s.ipOutput(m, tp.laddr, tp.faddr, ProtoTCP, 0)
	// More to send?  Only if data remains within the window.
	return length > 0 && tp.sndBuf.cc-int(tp.sndNxt-tp.sndUna) > 0 &&
		uint32(int(tp.sndNxt-tp.sndUna)) < wnd
}
