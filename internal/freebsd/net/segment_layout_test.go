package bsdnet

// Segment-layout pins: a segment is built the way the donor's
// tcp_output builds it.  Its TCP, IP and Ethernet headers share one
// mbuf, and a payload of up to segRoom bytes is copied in behind them,
// so every control segment and every small segment reaches the
// interface as one contiguous mbuf (which a driver glue maps instead of
// flattening).  A larger payload shares the send buffer's storage behind
// the header mbuf.  Each segment is counted in mbufs, never timed.

import (
	"bytes"
	"testing"
)

func TestSegmentLayout(t *testing.T) {
	p := newSegPeer(t)
	s, tp := p.s, p.tp

	// emit runs fn as a component entry and returns the one segment it
	// sent, with the mbufs building it cost.
	emit := func(what string, fn func()) sentSeg {
		t.Helper()
		n, allocs := len(p.out), stat(t, s, "mbuf.allocs")
		withStack(s, fn)
		if len(p.out) != n+1 {
			t.Fatalf("%s sent %d segments, want 1", what, len(p.out)-n)
		}
		if got := stat(t, s, "mbuf.allocs") - allocs; got != int64(p.out[n].links) {
			t.Errorf("%s cost %d mbuf.allocs for a %d-link frame", what, got, p.out[n].links)
		}
		return p.out[n]
	}
	// locked runs fn with the stack and pcb locks held, as the timer
	// and input paths that send these segments do.
	locked := func(tp *tcpcb, fn func()) func() {
		return func() {
			s.mu.Lock()
			tp.mu.Lock()
			fn()
			tp.mu.Unlock()
			s.mu.Unlock()
		}
	}
	// queue puts n bytes in the send buffer without sending them.
	queue := func(n int) {
		withStack(s, func() {
			tp.mu.Lock()
			ok := tp.sndBuf.appendData(bytes.Repeat([]byte{'x'}, n))
			tp.mu.Unlock()
			if !ok {
				t.Fatal("appendData failed")
			}
		})
	}
	// ackAll has the peer acknowledge everything sent.
	ackAll := func() {
		p.ack = tp.sndMax
		p.inject(tcpSegment(segPeerPort, fuzzPort, p.seq, p.ack, thACK, nil))
		if tp.sndBuf.cc != 0 {
			t.Fatalf("%d bytes unacknowledged", tp.sndBuf.cc)
		}
	}
	one := func(what string, seg sentSeg, payload int) {
		t.Helper()
		if seg.links != 1 || seg.n != payload {
			t.Errorf("%s left as %d mbufs with %d payload bytes, want one contiguous mbuf with %d", what, seg.links, seg.n, payload)
		}
	}

	if seg := p.out[0]; seg.flags != thSYN|thACK || seg.links != 1 {
		t.Errorf("SYN-ACK left as %d mbufs (flags %#x), want one", seg.links, seg.flags)
	}
	syn := s.tcpNew()
	one("SYN", emit("connect", locked(syn, func() {
		if err := syn.usrConnect(fuzzPeer, segPeerPort+1); err != nil {
			t.Fatal(err)
		}
	})), 0)
	one("pure ACK", emit("ACK", locked(tp, func() { s.tcpRespondACK(tp) })), 0)
	one("RST", emit("RST", func() {
		s.tcpRespond(fuzzIP, fuzzPort, fuzzPeer, segPeerPort+2, 1, 0, thRST, 0)
	}), 0)

	queue(segRoom(tcpHdrLen))
	one("44-byte segment", emit("44-byte write", locked(tp, func() { s.tcpOutput(tp) })), segRoom(tcpHdrLen))
	ackAll()

	queue(segRoom(tcpHdrLen) + 1)
	if seg := emit("45-byte write", locked(tp, func() { s.tcpOutput(tp) })); seg.links != 2 || seg.clusters != 0 {
		t.Errorf("45-byte segment left as %d mbufs (%d clusters), want the header mbuf chained to a copy", seg.links, seg.clusters)
	}
	ackAll()

	queue(int(tp.maxSeg))
	if seg := emit("full-sized write", locked(tp, func() { s.tcpOutput(tp) })); seg.n != 1460 || seg.links != 2 || seg.clusters != 1 {
		t.Errorf("%d-byte segment left as %d mbufs (%d clusters), want one header mbuf and the shared cluster", seg.n, seg.links, seg.clusters)
	}
	ackAll()

	// The persist probe: one byte beyond a closed window.
	tp.sndWnd = 0
	queue(1)
	one("window probe", emit("probe", locked(tp, func() { s.tcpProbe(tp) })), 1)
	withStack(s, func() {
		tp.mu.Lock()
		tp.sndBuf.drop(1)
		tp.sndWnd = 4096
		tp.mu.Unlock()
	})

	seg := emit("close", func() {
		if err := p.conn.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if seg.flags&thFIN == 0 {
		t.Errorf("close sent flags %#x, want a FIN", seg.flags)
	}
	one("FIN", seg, 0)
}
