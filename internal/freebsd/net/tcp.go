package bsdnet

import (
	"encoding/binary"

	bsdglue "oskit/internal/freebsd/glue"
)

// TCP: the 4.4BSD-shaped implementation — sequence space arithmetic,
// control blocks, retransmission with exponential backoff and RTT
// estimation, slow start / congestion avoidance / fast retransmit,
// out-of-order reassembly, and the full connection state machine.
//
// Everything runs under the stack lock, where the donor ran at splnet:
// tcp_input from interrupt level when the driver pushes a frame,
// tcp_output and the user requests from process level under the lock
// the socket layer takes.

// TCP states.
const (
	tcpsClosed = iota
	tcpsListen
	tcpsSynSent
	tcpsSynRcvd
	tcpsEstablished
	tcpsCloseWait
	tcpsFinWait1
	tcpsClosing
	tcpsLastAck
	tcpsFinWait2
	tcpsTimeWait
)

// Header flags.
const (
	thFIN = 0x01
	thSYN = 0x02
	thRST = 0x04
	thPSH = 0x08
	thACK = 0x10
	thURG = 0x20
)

const (
	tcpHdrLen = 20
	tcpMSS    = 1460 // Ethernet MTU minus IP and TCP headers
)

// Timer indices (slow ticks: 500 ms units).
const (
	tRexmt = iota
	tPersist
	tKeep
	t2MSL
	tcpNTimers
)

const (
	tcpRexmtMin    = 1   // 500 ms
	tcpRexmtMax    = 128 // 64 s
	tcpMSLTicks    = 60  // 30 s
	tcpMaxRxtShift = 12
)

// tcpDefaultMaxTimeWait bounds lingering TIME_WAIT pcbs.  Under the
// cluster rig's connection churn the server side closes first, so every
// finished connection parks a pcb (and its port tuple) for 2*MSL; with
// no bound the churn rate is capped by MSL, not by the stack.  When the
// cap is exceeded the oldest TIME_WAIT pcb is recycled (counted in
// tcp.timewait_recycled) — the 4.4BSD compromise of trading perfect
// old-duplicate protection for sustained accept rates.
const tcpDefaultMaxTimeWait = 512

// Sequence-space comparisons (RFC 793 modular arithmetic).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// tcpSeg is one parsed segment (input side).
type tcpSeg struct {
	seq   uint32
	ack   uint32
	flags byte
	wnd   uint16
	mss   uint16 // from options; 0 if absent
	// m is the data: the received chain trimmed to the payload, nil when
	// there is none.  A receive buffer or the reassembly queue takes it
	// (and nils it); whoever drops the segment instead calls free.
	m *Mbuf
}

// free releases a data chain nothing took ownership of.
func (seg *tcpSeg) free() {
	seg.m.FreeChain()
	seg.m = nil
}

// freeReass releases the reassembly queue and the chains it holds.
func (tp *tcpcb) freeReass() {
	for i := range tp.reass {
		tp.reass[i].free()
	}
	tp.reass = nil
}

// tcpcb is the connection control block.  All of it lives under the
// stack lock (locks.go); only the backpointer and the two event ids,
// fixed at creation, are read without it.
//
//oskit:guardedby s.mu
type tcpcb struct {
	s     *Stack //oskit:initonly
	state int

	laddr, faddr IPAddr
	lport, fport uint16

	sndBuf sockbuf
	rcvBuf sockbuf

	// Send sequence space.
	iss            uint32
	sndUna, sndNxt uint32
	sndMax         uint32
	sndWnd         uint32
	sndWL1, sndWL2 uint32
	cwnd, ssthresh uint32
	dupacks        int
	maxSeg         uint32

	// Receive sequence space.
	irs    uint32
	rcvNxt uint32
	rcvAdv uint32

	// Retransmission machinery.
	timers   [tcpNTimers]int
	rxtShift int
	srtt     int // scaled by 8, in slow ticks
	rttvar   int // scaled by 4
	rtt      int // active measurement counter (0 = none)
	rtseq    uint32

	// Out-of-order segments, sorted by seq.
	reass []tcpSeg

	// Listener state.  synQ holds embryonic connections (SynRcvd, not
	// yet completed); acceptQ holds completed connections awaiting
	// Accept.  A child points at its listener through parent until
	// accepted or dropped.
	listening bool
	backlog   int
	synQ      []*tcpcb
	acceptQ   []*tcpcb
	parent    *tcpcb

	// pcbIdx is this pcb's slot in Stack.tcpPCBs (swap-remove on
	// detach); -1 once detached, which makes tcpDetach idempotent — a
	// pcb can be dropped by a timer and again by the closing user path
	// without corrupting the list.
	pcbIdx int

	// User synchronization.
	connEvent   uint32 //oskit:initonly
	acceptEvent uint32 //oskit:initonly

	// delack is BSD's TF_DELACK: in-order data arrived and its ACK is
	// being held for the next segment this side sends, for a second
	// data segment (which makes it due), or for the slow-timer sweep.
	// Any segment carrying an ACK clears it (ackSent).
	delack bool

	// Receive-entry deferral (see Stack.rxFlush): in-order data sets
	// these instead of waking the reader and sending a due ACK per
	// segment, and the entry's rxFlush does each once.  rxAckOwed is
	// cleared by any ACK sent on the connection's behalf meanwhile
	// (ackSent), so the flush never duplicates one.
	rxPendWake bool
	rxAckOwed  bool

	nodelay bool
	sentFin bool
	err     bsdglue.Errno // sticky socket error
	refcnt  int           // socket references; pcb freed at 0
}

// tcpNew creates an attached pcb.  Called with the stack lock held.
func (s *Stack) tcpNew() *tcpcb {
	tp := &tcpcb{
		s:        s,
		state:    tcpsClosed,
		maxSeg:   tcpMSS,
		cwnd:     tcpMSS,
		ssthresh: 65535,
		srtt:     0,
		rttvar:   3 * 4, // BSD initial: srtt unset, rttvar 3 ticks
	}
	tp.pcbIdx = len(s.tcpPCBs)
	tp.sndBuf.init(s)
	tp.rcvBuf.init(s)
	tp.connEvent = s.newEvent()
	tp.acceptEvent = s.newEvent()
	s.tcpPCBs = append(s.tcpPCBs, tp)
	s.sc.tcpPCBCount.Set(int64(len(s.tcpPCBs)))
	return tp
}

// tcpDetach removes a pcb from the stack: swap-remove from the pcb
// list, drop its demux and port-occupancy entries, unlink it from any
// listener queue, and free the socket buffers.  Idempotent: a second
// call (timer vs. user close racing) is a no-op.  Called with the
// stack lock held.
func (s *Stack) tcpDetach(tp *tcpcb) {
	idx := tp.pcbIdx
	if idx < 0 {
		return
	}
	last := len(s.tcpPCBs) - 1
	moved := s.tcpPCBs[last]
	s.tcpPCBs[idx] = moved
	moved.pcbIdx = idx
	s.tcpPCBs[last] = nil
	s.tcpPCBs = s.tcpPCBs[:last]
	tp.pcbIdx = -1
	s.sc.tcpPCBCount.Set(int64(len(s.tcpPCBs)))

	if tp.listening {
		if s.tcpListen[tp.lport] == tp {
			delete(s.tcpListen, tp.lport)
		}
	} else if tp.fport != 0 {
		k := tcpKey{tp.laddr, tp.lport, tp.faddr, tp.fport}
		if s.tcpHash[k] == tp {
			delete(s.tcpHash, k)
		}
	}
	if tp.lport != 0 {
		if n := s.tcpPorts[tp.lport]; n <= 1 {
			delete(s.tcpPorts, tp.lport)
		} else {
			s.tcpPorts[tp.lport] = n - 1
		}
	}
	if tp.state == tcpsTimeWait {
		s.twLive--
	}
	if p := tp.parent; p != nil {
		removePCB(&p.synQ, tp)
		removePCB(&p.acceptQ, tp)
	}
	tp.sndBuf.flush()
	tp.rcvBuf.flush()
	tp.freeReass()
	tp.state = tcpsClosed
}

// removePCB deletes tp from a listener queue if present.
func removePCB(q *[]*tcpcb, tp *tcpcb) {
	for i, p := range *q {
		if p == tp {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// tcpBind assigns the local port.  The per-port occupancy map makes
// both the ephemeral probe and the conflict check O(1); a port is
// refused only while some pcb actually holds it (TIME_WAIT pcbs count
// until detached or recycled).  Called with the stack lock held.
func (s *Stack) tcpBind(tp *tcpcb, port uint16, reuse bool) error {
	if tp.lport != 0 {
		return bsdglue.EINVAL
	}
	if port == 0 {
		p, err := s.ephemeral(s.tcpPorts)
		if err != nil {
			return err
		}
		port = p
	} else if s.tcpPorts[port] > 0 {
		if s.tcpListen[port] != nil || !reuse {
			return bsdglue.EADDRINUSE
		}
	}
	tp.laddr = s.ifIP
	tp.lport = port
	s.tcpPorts[port]++
	return nil
}

// newISS picks an initial send sequence.  Called with the stack lock
// held.
func (s *Stack) newISS() uint32 {
	s.issSeed += 64000
	return s.issSeed
}

// usrConnect starts the three-way handshake (caller blocks in the
// socket layer on connEvent).  Called with the stack lock held.
func (tp *tcpcb) usrConnect(dst IPAddr, dport uint16) error {
	if tp.lport == 0 {
		if err := tp.s.tcpBind(tp, 0, false); err != nil {
			return err
		}
	}
	tp.faddr = dst
	tp.fport = dport
	if err := tp.s.tcpRegisterConn(tp); err != nil {
		// 4-tuple collision (usually a lingering TIME_WAIT twin).
		tp.faddr, tp.fport = IPAddr{}, 0
		return err
	}
	tp.iss = tp.s.newISS()
	tp.sndUna, tp.sndNxt, tp.sndMax = tp.iss, tp.iss, tp.iss
	tp.state = tcpsSynSent
	tp.timers[tRexmt] = tp.rexmtTimeout()
	tp.s.tcpOutput(tp)
	return nil
}

// usrListen makes the pcb passive.  Called with the stack lock held.
func (tp *tcpcb) usrListen(backlog int) error {
	if tp.lport == 0 {
		return bsdglue.EINVAL
	}
	if backlog < 1 {
		backlog = 1
	}
	if lp := tp.s.tcpListen[tp.lport]; lp != nil && lp != tp {
		return bsdglue.EADDRINUSE
	}
	tp.listening = true
	tp.backlog = backlog
	tp.state = tcpsListen
	tp.s.tcpListen[tp.lport] = tp
	return nil
}

// usrClose begins an orderly close from the user side.  Called with the
// stack lock held.
func (tp *tcpcb) usrClose() {
	switch tp.state {
	case tcpsClosed, tcpsListen, tcpsSynSent:
		if tp.listening {
			// Closing a listener must abort everything still parked on
			// it: embryonic connections in synQ and completed-but-never-
			// accepted ones in acceptQ.  Leaving them attached orphans
			// live pcbs — peers that completed the handshake hang with a
			// connection nobody will ever read, and their sockbuf mbuf
			// chains leak for the stack's lifetime.
			tp.s.tcpAbortListenQueues(tp)
		}
		tp.s.tcpDetach(tp)
	case tcpsSynRcvd, tcpsEstablished:
		tp.state = tcpsFinWait1
		tp.s.tcpOutput(tp)
	case tcpsCloseWait:
		tp.state = tcpsLastAck
		tp.s.tcpOutput(tp)
	}
	// Wake anyone blocked; they will see the state change.
	tp.wakeAll()
}

// tcpAbortListenQueues resets every connection still queued at a
// closing listener.  usrAbort sends RST for handshake-complete states,
// then drop detaches the pcb and frees its buffers; the peer sees a
// reset instead of a silent black hole.  Called with the stack lock
// held.
func (s *Stack) tcpAbortListenQueues(lp *tcpcb) {
	pend := append(append([]*tcpcb(nil), lp.synQ...), lp.acceptQ...)
	lp.synQ, lp.acceptQ = nil, nil
	for _, c := range pend {
		c.parent = nil // already unlinked; don't wake the dying listener
		c.usrAbort()
	}
}

// tcpEnterTimeWait parks a pcb in TIME_WAIT for 2*MSL.  The reassembly
// queue is freed (nothing more can complete) but the receive buffer is
// kept — the application may still drain data that arrived before the
// FIN.  If the stack's TIME_WAIT cap is exceeded, the oldest lingering
// pcb is recycled immediately, releasing its port.  Called with the
// stack lock held.
func (s *Stack) tcpEnterTimeWait(tp *tcpcb) {
	tp.state = tcpsTimeWait
	tp.timers[tRexmt] = 0
	tp.timers[tPersist] = 0
	tp.timers[t2MSL] = 2 * tcpMSLTicks
	tp.freeReass()
	// Lazily prune entries whose pcb already left TIME_WAIT (2MSL timer
	// expiry or SYN reincarnation) so the queue stays bounded.
	for len(s.twQueue) > 0 {
		h := s.twQueue[0]
		if h.state == tcpsTimeWait && h.pcbIdx >= 0 {
			break
		}
		s.twQueue = s.twQueue[1:]
	}
	s.twQueue = append(s.twQueue, tp)
	s.twLive++
	for s.twLive > s.maxTimeWait && len(s.twQueue) > 0 {
		old := s.twQueue[0]
		s.twQueue = s.twQueue[1:]
		if old == tp {
			continue // FIFO order makes this unreachable
		}
		if old.state != tcpsTimeWait || old.pcbIdx < 0 {
			continue // left TIME_WAIT already (reincarnated or expired)
		}
		s.sc.tcpTWRecycled.Inc()
		s.tcpDetach(old)
		old.wakeAll()
	}
}

// usrAbort sends RST and drops the connection.  Called with the stack
// lock held.
func (tp *tcpcb) usrAbort() {
	if tp.state == tcpsEstablished || tp.state == tcpsSynRcvd ||
		tp.state == tcpsFinWait1 || tp.state == tcpsFinWait2 || tp.state == tcpsCloseWait {
		tp.s.tcpRespond(tp.laddr, tp.lport, tp.faddr, tp.fport, tp.sndNxt, 0, thRST, 0)
	}
	tp.drop(bsdglue.ECONNRESET)
}

// drop kills the connection with a sticky error and wakes everyone.
// Called with the stack lock held.
func (tp *tcpcb) drop(err bsdglue.Errno) {
	tp.err = err
	tp.s.tcpDetach(tp)
	tp.wakeAll()
}

// wakeAll wakes every waiter parked on the pcb.  Called with the stack
// lock held; the wakeup path only takes the leaf sleep-queue lock.
func (tp *tcpcb) wakeAll() {
	g := tp.s.g
	g.Wakeup(tp.rcvBuf.event)
	g.Wakeup(tp.sndBuf.event)
	g.Wakeup(tp.connEvent)
	g.Wakeup(tp.acceptEvent)
	if tp.parent != nil {
		g.Wakeup(tp.parent.acceptEvent)
	}
}

// ackSent records that a segment acknowledging rcvNxt is leaving: no
// delayed or flush-deferred ACK is owed any more.  Called with the
// stack lock held.
func (tp *tcpcb) ackSent() {
	tp.delack = false
	tp.rxAckOwed = false
}

// initialWindow is the RFC 3390 first flight, min(4·MSS, max(2·MSS,
// 4380 bytes)): with delayed ACKs a one-segment flight would wait for
// the slow-timer sweep before its ACK came back.
func (tp *tcpcb) initialWindow() uint32 {
	return min(4*tp.maxSeg, max(2*tp.maxSeg, 4380))
}

// rcvWindow computes the advertised window from receive-buffer room.
func (tp *tcpcb) rcvWindow() uint32 {
	w := tp.rcvBuf.space()
	if w > 65535 {
		w = 65535
	}
	return uint32(w)
}

// tcpRespond emits a bare control segment (RST or ACK) without a pcb
// send buffer — BSD's tcp_respond.  It reports false when no mbuf could
// be had and nothing was sent.
func (s *Stack) tcpRespond(laddr IPAddr, lport uint16, faddr IPAddr, fport uint16, seq, ack uint32, flags byte, wnd uint32) bool {
	m := s.mgetSeg(tcpHdrLen)
	if m == nil {
		return false
	}
	m = m.Prepend(tcpHdrLen)
	if m == nil {
		return false
	}
	h := m.Data()[:tcpHdrLen]
	packTCPHeader(h, lport, fport, seq, ack, flags, wnd)
	csum := s.chainChecksum(m, pseudoSum(laddr, faddr, ProtoTCP, m.PktLen))
	binary.BigEndian.PutUint16(h[16:18], csum)
	s.sc.tcpSegsOut.Inc()
	s.ipOutput(m, laddr, faddr, ProtoTCP, 0)
	return true
}

func packTCPHeader(h []byte, sport, dport uint16, seq, ack uint32, flags byte, wnd uint32) {
	binary.BigEndian.PutUint16(h[0:2], sport)
	binary.BigEndian.PutUint16(h[2:4], dport)
	binary.BigEndian.PutUint32(h[4:8], seq)
	binary.BigEndian.PutUint32(h[8:12], ack)
	h[12] = (tcpHdrLen / 4) << 4
	h[13] = flags
	binary.BigEndian.PutUint16(h[14:16], uint16(wnd))
	h[16], h[17] = 0, 0 // checksum, filled by caller
	h[18], h[19] = 0, 0
}
