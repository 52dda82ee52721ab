package bsdnet

// The receive path by hand: segments are injected straight into
// tcpInput against a driverless stack whose transmit side parses and
// frees whatever it is given, so every assertion is a counter or a byte
// comparison — which segments were linked, trimmed, queued or dropped —
// and never a clock.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"oskit/internal/com"
)

// segPeer is one established connection whose remote end the test
// plays.  Nothing runs the slow timer but the test (slowTimo), so a
// delayed ACK stays pending until the test sweeps it.
type segPeer struct {
	t    *testing.T
	s    *Stack
	conn com.Socket
	tp   *tcpcb
	seq  uint32    // the peer's first data sequence number
	ack  uint32    // what the peer acknowledges: the stack's ISS + 1
	out  []sentSeg // every TCP segment the stack sent, in order
}

// sentSeg is one segment the stack put on the wire.
type sentSeg struct {
	seq, ack uint32
	flags    byte
	n        int // payload bytes
	links    int // mbufs in the frame's chain
	clusters int // of which carry a cluster
}

const segPeerPort = 2000

func newSegPeer(t *testing.T) *segPeer {
	t.Helper()
	s := bareStack(t)
	s.Ifconfig(fuzzIP, IPAddr{255, 255, 255, 0})
	p := &segPeer{t: t, s: s}
	// A resolved neighbour and a transmit sink: replies leave the stack
	// (and are freed) instead of waiting on ARP.
	s.mu.Lock()
	s.arp.entries[fuzzPeer] = &arpEntry{valid: true, mac: [6]byte{2, 0, 0, 0, 0, 2}}
	s.mu.Unlock()
	s.ifAttach([6]byte{2, 0, 0, 0, 0, 1}, func(m *Mbuf) {
		frame := make([]byte, m.PktLen)
		m.CopyData(0, m.PktLen, frame)
		links, clusters := 0, 0
		for cur := m; cur != nil; cur = cur.Next {
			links++
			if cur.cluster {
				clusters++
			}
		}
		m.FreeChain()
		if ip := frame[etherHdrLen:]; ip[9] == ProtoTCP {
			tcp := ip[ipHdrLen:binary.BigEndian.Uint16(ip[2:4])] // runt padding off
			p.out = append(p.out, sentSeg{
				seq:      binary.BigEndian.Uint32(tcp[4:8]),
				ack:      binary.BigEndian.Uint32(tcp[8:12]),
				flags:    tcp[13],
				n:        len(tcp) - int(tcp[12]>>4)*4,
				links:    links,
				clusters: clusters,
			})
		}
	})

	fac := s.SocketFactory()
	defer fac.Release()
	so, err := fac.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := com.SockAddr{Family: com.AFInet, Port: fuzzPort}
	copy(a.Addr[:], fuzzIP[:])
	if err := so.Bind(a); err != nil {
		t.Fatal(err)
	}
	if err := so.Listen(4); err != nil {
		t.Fatal(err)
	}

	const irs = 5000
	p.seq = irs + 1
	p.inject(tcpSegment(segPeerPort, fuzzPort, irs, 0, thSYN, nil))
	p.tp = s.tcpHash[tcpKey{fuzzIP, fuzzPort, fuzzPeer, segPeerPort}]
	if p.tp == nil {
		t.Fatal("SYN created no connection")
	}
	p.ack = p.tp.iss + 1
	p.inject(tcpSegment(segPeerPort, fuzzPort, p.seq, p.ack, thACK, nil))
	if p.conn, _, err = so.Accept(); err != nil {
		t.Fatal(err)
	}
	if p.tp.state != tcpsEstablished {
		t.Fatalf("handshake left state %d", p.tp.state)
	}
	return p
}

// inject delivers one segment the way a per-frame Push would.
func (p *segPeer) inject(seg []byte) {
	p.t.Helper()
	m := p.s.MGetHdr()
	if m == nil || !m.Append(seg) {
		p.t.Fatal("mbuf exhausted")
	}
	p.s.mu.Lock()
	p.s.tcpInput(m, fuzzPeer, fuzzIP, nil)
	p.s.mu.Unlock()
}

// slowTimo runs one slow-timer sweep, returning the segments it sent.
func (p *segPeer) slowTimo() []sentSeg {
	n := len(p.out)
	p.s.slowTimo()
	return p.out[n:]
}

// data injects payload at offset off of the peer's stream.
func (p *segPeer) data(off int, payload []byte) {
	p.t.Helper()
	p.inject(tcpSegment(segPeerPort, fuzzPort, p.seq+uint32(off), p.ack, thACK, payload))
}

// fill injects src from offset 0 in order, a kilobyte a segment.
func (p *segPeer) fill(src []byte) {
	p.t.Helper()
	for off := 0; off < len(src); off += 1000 {
		p.data(off, src[off:min(off+1000, len(src))])
	}
}

// drain reads whatever the socket holds, never blocking.
func (p *segPeer) drain() []byte {
	var out []byte
	buf := make([]byte, 4096)
	for p.tp.rcvBuf.cc > 0 {
		n, err := p.conn.Read(buf)
		if err != nil {
			p.t.Fatal(err)
		}
		out = append(out, buf[:n]...)
	}
	return out
}

// outstanding is the stack's live mbuf count.
func (p *segPeer) outstanding() int64 {
	return stat(p.t, p.s, "mbuf.allocs") - stat(p.t, p.s, "mbuf.frees")
}

// stream is the peer's byte stream: position i holds a byte that names
// its own offset, so a misplaced or doubled byte cannot compare equal.
func stream(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestReassDuplicateOOOBounded: N arrivals of one out-of-order segment
// occupy one reassembly entry — a replaying peer cannot grow the queue,
// which holds driver buffers now, not collectable slices — and once the
// hole fills and the reader drains, every mbuf has been freed.
func TestReassDuplicateOOOBounded(t *testing.T) {
	p := newSegPeer(t)
	idle := p.outstanding()
	src := stream(3000)
	dups := stat(t, p.s, "tcp.drop_dup")

	const copies = 50
	for i := 0; i < copies; i++ {
		p.data(1000, src[1000:2000])
	}
	// A segment inside the queued one's range is covered too; one that
	// reaches past it is not.
	p.data(1200, src[1200:1700])
	p.data(1500, src[1500:3000])
	if got := len(p.tp.reass); got != 2 {
		t.Fatalf("reassembly queue holds %d entries after %d copies of one segment and one new one, want 2", got, copies)
	}
	if got := stat(t, p.s, "tcp.drop_dup") - dups; got != copies {
		t.Errorf("tcp.drop_dup grew by %d, want %d (%d replays + 1 covered)", got, copies, copies-1)
	}
	if got := stat(t, p.s, "tcp.ooo_segs"); got != 2 {
		t.Errorf("tcp.ooo_segs = %d, want 2", got)
	}
	if p.tp.rcvBuf.cc != 0 {
		t.Fatalf("out-of-order data reached the receive buffer: cc = %d", p.tp.rcvBuf.cc)
	}

	p.data(0, src[:1000])
	if got := p.drain(); !bytes.Equal(got, src) {
		t.Fatalf("delivered %d bytes, want the %d-byte stream intact", len(got), len(src))
	}
	if len(p.tp.reass) != 0 {
		t.Fatalf("reassembly queue not drained: %d entries", len(p.tp.reass))
	}
	if last := p.out[len(p.out)-1].ack; last != p.seq+uint32(len(src)) {
		t.Errorf("last ACK = %d, want %d", last-p.seq, len(src))
	}
	if got := p.outstanding(); got != idle {
		t.Fatalf("live mbufs = %d after the drain, %d before the first segment\n%s", got, idle, statDump(p.s))
	}
}

// TestReassQueueCapped: every queued segment pins the driver buffer it
// arrived in, however few bytes it carries, so the queue holds at most
// the receive buffer's own bound of them (4 × hiwat in clusters); the
// rest are dropped, counted, and delivered when the peer retransmits.
func TestReassQueueCapped(t *testing.T) {
	p := newSegPeer(t)
	src := stream(400)
	limit := 4 * p.tp.rcvBuf.hiwat / MCLBYTES
	for off := 2; off < len(src); off += 2 { // 199 one-byte islands
		p.data(off, src[off:off+1])
	}
	if got := len(p.tp.reass); got != limit {
		t.Fatalf("reassembly queue holds %d entries, want the cap of %d", got, limit)
	}
	if got := stat(t, p.s, "tcp.drop_reass_full"); got != int64(199-limit) {
		t.Errorf("tcp.drop_reass_full = %d, want %d", got, 199-limit)
	}
	p.fill(src) // the retransmission
	if got := p.drain(); !bytes.Equal(got, src) {
		t.Fatalf("delivered %d bytes, want the %d-byte stream intact", len(got), len(src))
	}
	if len(p.tp.reass) != 0 {
		t.Fatalf("reassembly queue not drained: %d entries", len(p.tp.reass))
	}
}

// TestReassQueueFreedWithConnection: the two places that abandon a
// reassembly queue (detach, TIME_WAIT entry) free the chains in it
// rather than leaving them to the collector.
func TestReassQueueFreedWithConnection(t *testing.T) {
	p := newSegPeer(t)
	idle := p.outstanding()
	src := stream(4000)
	p.data(1000, src[1000:2000]) // linked: at or above mclMin
	p.data(3000, src[3000:3100]) // copied: below it
	if len(p.tp.reass) != 2 {
		t.Fatalf("reassembly queue holds %d entries, want 2", len(p.tp.reass))
	}
	p.inject(tcpSegment(segPeerPort, fuzzPort, p.seq, p.ack, thRST, nil))
	if p.tp.state != tcpsClosed {
		t.Fatalf("RST left state %d", p.tp.state)
	}
	if got := p.outstanding(); got != idle {
		t.Fatalf("live mbufs = %d after the reset, %d before the first segment\n%s", got, idle, statDump(p.s))
	}
}

// TestTrimmedSegmentDelivery drives the two m_adj branches of the
// window trim — a segment that overlaps rcvNxt by k bytes loses its
// front, one that overruns the window by k loses its tail — directly
// and through the reassembly queue, and checks that exactly the
// in-window bytes are delivered, in place.
func TestTrimmedSegmentDelivery(t *testing.T) {
	const k = 37
	t.Run("front", func(t *testing.T) {
		p := newSegPeer(t)
		src := stream(2000)
		p.data(0, src[:1000])
		p.data(1000-k, src[1000-k:2000]) // first k bytes already received
		if got := p.drain(); !bytes.Equal(got, src) {
			t.Fatalf("delivered %d bytes, want %d with the overlap delivered once", len(got), len(src))
		}
	})
	t.Run("front through reassembly", func(t *testing.T) {
		p := newSegPeer(t)
		src := stream(3000)
		p.data(1000-k, src[1000-k:2000]) // queued; will overlap by k when the hole fills
		p.data(2000-k, src[2000-k:3000]) // queued; overlaps its predecessor by k
		p.data(0, src[:1000])
		if got := p.drain(); !bytes.Equal(got, src) {
			t.Fatalf("delivered %d bytes, want %d with both overlaps delivered once", len(got), len(src))
		}
		if len(p.tp.reass) != 0 {
			t.Fatalf("reassembly queue not drained: %d entries", len(p.tp.reass))
		}
	})
	t.Run("tail", func(t *testing.T) {
		p := newSegPeer(t)
		wnd := int(p.tp.rcvWindow())
		src := stream(wnd + k)
		have := wnd - 800
		p.fill(src[:have])
		// The last segment runs k bytes past the advertised window.
		p.data(have, src[have:])
		if p.tp.rcvBuf.cc != wnd {
			t.Fatalf("receive buffer holds %d bytes, want the window's %d", p.tp.rcvBuf.cc, wnd)
		}
		if got := p.drain(); !bytes.Equal(got, src[:wnd]) {
			t.Fatalf("delivered %d bytes, want exactly the %d in the window", len(got), wnd)
		}
	})
	t.Run("tail through reassembly", func(t *testing.T) {
		p := newSegPeer(t)
		wnd := int(p.tp.rcvWindow())
		src := stream(wnd + k)
		// Queued out of order and clipped to the window on arrival.
		p.data(wnd-1000, src[wnd-1000:])
		p.fill(src[:wnd-1000])
		if got := p.drain(); !bytes.Equal(got, src[:wnd]) {
			t.Fatalf("delivered %d bytes, want exactly the %d in the window", len(got), wnd)
		}
	})
}

// TestSockbufAppendSegThreshold: the one constant.  A segment below
// mclMin is copied into the buffer's tail and its chain freed; one
// at the threshold is linked as it is, storage and all.
func TestSockbufAppendSegThreshold(t *testing.T) {
	s := bareStack(t)
	var sb sockbuf
	sb.init(s)
	seg := func(n int) *Mbuf {
		m := s.MGetHdr()
		if m == nil || !m.Append(stream(n)) {
			t.Fatal("setup allocation failed")
		}
		return m
	}
	small := seg(mclMin - 1)
	sb.appendSeg(small)
	if small.store != nil || sb.head == small {
		t.Error("a segment below mclMin was linked, not copied and freed")
	}
	big := seg(mclMin)
	sb.appendSeg(big)
	if big.store == nil || sb.tail != big.last() {
		t.Error("a segment of mclMin bytes was copied, not linked")
	}
	want := append(stream(mclMin-1), stream(mclMin)...)
	got := make([]byte, sb.cc)
	if n := sb.read(got); n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, want the %d appended", n, len(want))
	}
	if sb.head != nil || sb.tail != nil {
		t.Fatal("a drained buffer still holds links")
	}
}

// The delayed-ACK policy, counted in segments.  In-order data with
// nothing queued behind it holds its ACK: a second segment makes it
// due, any segment this side sends carries it, and the slow-timer sweep
// sends whatever is still pending.  Everything that tells the sender
// something it must hear now — a hole, its repair, a duplicate, a
// segment outside the window, a FIN — is ACKed at once.

// withWindow rewrites a tcpSegment's advertised window.
func withWindow(seg []byte, wnd uint16) []byte {
	binary.BigEndian.PutUint16(seg[14:16], wnd)
	seg[16], seg[17] = 0, 0
	binary.BigEndian.PutUint16(seg[16:18], Checksum(seg, pseudoSum(fuzzPeer, fuzzIP, ProtoTCP, len(seg))))
	return seg
}

// TestDelayedACKEverySecondSegment: two in-order segments draw one
// bare ACK, and it covers both.
func TestDelayedACKEverySecondSegment(t *testing.T) {
	p := newSegPeer(t)
	n := len(p.out)
	p.fill(stream(2000))
	if got := p.out[n:]; len(got) != 1 || got[0].n != 0 || got[0].ack != p.seq+2000 {
		t.Fatalf("two in-order segments drew %+v, want one bare ACK at %d", got, p.seq+2000)
	}
	if got := p.slowTimo(); len(got) != 0 {
		t.Errorf("the sweep sent %+v with no ACK pending", got)
	}
}

// TestDelayedACKRidesReply: the reply a request provokes carries the
// request's ACK, and nothing is left for the sweep.
func TestDelayedACKRidesReply(t *testing.T) {
	p := newSegPeer(t)
	timeouts := stat(t, p.s, "tcp.delack_timeouts")
	n := len(p.out)
	p.data(0, []byte("ping"))
	if got := p.out[n:]; len(got) != 0 {
		t.Fatalf("one in-order segment drew %+v at once, want its ACK delayed", got)
	}
	if _, err := p.conn.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got := p.out[n:]; len(got) != 1 || got[0].n != 4 || got[0].ack != p.seq+4 || got[0].flags&thACK == 0 {
		t.Fatalf("the reply went out as %+v, want one 4-byte segment acknowledging %d", got, p.seq+4)
	}
	if got := p.slowTimo(); len(got) != 0 {
		t.Errorf("the sweep sent %+v after the reply carried the ACK", got)
	}
	if got := stat(t, p.s, "tcp.delack_timeouts") - timeouts; got != 0 {
		t.Errorf("tcp.delack_timeouts moved by %d, want 0", got)
	}
}

// TestDelayedACKSweep: a lone segment's ACK waits for one slow-timer
// sweep, which sends exactly one and counts it.
func TestDelayedACKSweep(t *testing.T) {
	p := newSegPeer(t)
	timeouts := stat(t, p.s, "tcp.delack_timeouts")
	n := len(p.out)
	p.data(0, stream(100))
	if got := p.out[n:]; len(got) != 0 {
		t.Fatalf("a lone segment drew %+v before the sweep", got)
	}
	if got := p.slowTimo(); len(got) != 1 || got[0].n != 0 || got[0].ack != p.seq+100 {
		t.Fatalf("the sweep sent %+v, want one bare ACK at %d", got, p.seq+100)
	}
	if got := stat(t, p.s, "tcp.delack_timeouts") - timeouts; got != 1 {
		t.Errorf("tcp.delack_timeouts moved by %d, want 1", got)
	}
	if got := p.slowTimo(); len(got) != 0 {
		t.Errorf("a second sweep sent %+v", got)
	}
}

// TestImmediateACKs: segments the sender must hear about at once are
// ACKed by themselves, one ACK each, with no sweep.
func TestImmediateACKs(t *testing.T) {
	src := stream(2000)
	cases := []struct {
		name  string
		setup func(p *segPeer)
		step  func(p *segPeer)
		ack   uint32 // relative to the peer's first data byte
	}{
		{"out of order", func(*segPeer) {}, func(p *segPeer) { p.data(1000, src[1000:]) }, 0},
		{"hole filled", func(p *segPeer) { p.data(1000, src[1000:]) }, func(p *segPeer) { p.data(0, src[:1000]) }, 2000},
		{"duplicate", func(p *segPeer) { p.data(0, src[:1000]); p.slowTimo() }, func(p *segPeer) { p.data(0, src[:1000]) }, 1000},
		{"out of window", func(*segPeer) {}, func(p *segPeer) { p.data(int(p.tp.rcvWindow()), src[:100]) }, 0},
		{"fin", func(*segPeer) {}, func(p *segPeer) {
			p.inject(tcpSegment(segPeerPort, fuzzPort, p.seq, p.ack, thACK|thFIN, src[:100]))
		}, 101},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newSegPeer(t)
			tc.setup(p)
			n := len(p.out)
			tc.step(p)
			if got := p.out[n:]; len(got) != 1 || got[0].n != 0 || got[0].ack != p.seq+tc.ack {
				t.Fatalf("drew %+v, want one bare ACK at %d", got, p.seq+tc.ack)
			}
		})
	}
}

// TestDelayedACKBatch: a PushBatch follows the per-frame policy and
// defers only a due ACK to its flush — batches of one, two and three
// in-order frames draw no ACK, one and one.
func TestDelayedACKBatch(t *testing.T) {
	for _, tc := range []struct{ frames, acks int }{{1, 0}, {2, 1}, {3, 1}} {
		p := newSegPeer(t)
		recv := &stackRecv{s: p.s}
		recv.Init()
		src := stream(1000 * tc.frames)
		var pkts []com.BufIO
		var sizes []uint
		for off := 0; off < len(src); off += 1000 {
			seg := tcpSegment(segPeerPort, fuzzPort, p.seq+uint32(off), p.ack, thACK, src[off:off+1000])
			f := etherFrame(EtherTypeIP, ipDatagram(ProtoTCP, seg))
			pkts = append(pkts, com.NewMemBuf(f))
			sizes = append(sizes, uint(len(f)))
		}
		n := len(p.out)
		if err := recv.PushBatch(pkts, sizes); err != nil {
			t.Fatal(err)
		}
		recv.Release()
		got := p.out[n:]
		if len(got) != tc.acks || (tc.acks == 1 && got[0].ack != p.seq+uint32(len(src))) {
			t.Errorf("a batch of %d in-order frames drew %+v, want %d ACK(s) of all %d bytes", tc.frames, got, tc.acks, len(src))
		}
		if got := p.drain(); !bytes.Equal(got, src) {
			t.Errorf("batch of %d: delivered %d bytes, want the %d-byte stream intact", tc.frames, len(got), len(src))
		}
	}
}

// TestInitialWindow: both open paths start with the RFC 3390 window of
// three full segments, so a first flight does not wait on a delayed
// ACK; after a retransmit timeout the window is one segment again.
func TestInitialWindow(t *testing.T) {
	p := newSegPeer(t)
	// The peer opens its window wide, so only cwnd limits the flight.
	p.inject(withWindow(tcpSegment(segPeerPort, fuzzPort, p.seq, p.ack, thACK, nil), 65535))
	n := len(p.out)
	if _, err := p.conn.Write(stream(10000)); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, sg := range p.out[n:] {
		sent += sg.n
	}
	if got := p.out[n:]; len(got) != 3 || sent != 4380 {
		t.Fatalf("a fresh connection sent %d bytes in %d segments before its first ACK, want 4380 in 3", sent, len(got))
	}
	n = len(p.out)
	withStack(p.s, func() {
		p.s.mu.Lock()
		p.s.tcpTimerFire(p.tp, tRexmt)
		p.s.mu.Unlock()
	})
	if got := p.out[n:]; len(got) != 1 || got[0].seq != p.ack || got[0].n != tcpMSS {
		t.Fatalf("after the timeout the stack sent %+v, want one %d-byte segment from %d", got, tcpMSS, p.ack)
	}

	// The active open: SYN_SENT completes with the same window.
	var tp *tcpcb
	withStack(p.s, func() {
		p.s.mu.Lock()
		defer p.s.mu.Unlock()
		tp = p.s.tcpNew()
		if err := tp.usrConnect(fuzzPeer, segPeerPort+1); err != nil {
			t.Fatal(err)
		}
	})
	p.inject(tcpSegment(segPeerPort+1, tp.lport, 9000, tp.iss+1, thSYN|thACK, nil))
	if tp.state != tcpsEstablished || tp.cwnd != 3*tcpMSS {
		t.Fatalf("active open: state %d, cwnd %d, want established with %d", tp.state, tp.cwnd, 3*tcpMSS)
	}
}

// TestPersistProbes: a peer that closes its window holds the queued data
// back; each persist firing then sends one 1-byte probe, each interval
// longer than the last, and the window update that reopens the window
// releases the data.
func TestPersistProbes(t *testing.T) {
	p := newSegPeer(t)
	p.inject(withWindow(tcpSegment(segPeerPort, fuzzPort, p.seq, p.ack, thACK, nil), 0))
	src := stream(3000)
	n := len(p.out)
	if _, err := p.conn.Write(src); err != nil {
		t.Fatal(err)
	}
	if got := p.out[n:]; len(got) != 0 || p.tp.sndBuf.cc != len(src) {
		t.Fatalf("a closed window let %+v out, %d of %d bytes queued", got, p.tp.sndBuf.cc, len(src))
	}

	var intervals []int
	for sweeps := 1; len(intervals) < 3 && sweeps <= 1000; sweeps++ {
		got := p.slowTimo()
		if len(got) == 0 {
			continue
		}
		if len(got) != 1 || got[0].n != 1 || got[0].seq != p.ack {
			t.Fatalf("a persist firing sent %+v, want one 1-byte probe at %d", got, p.ack)
		}
		intervals = append(intervals, sweeps)
		sweeps = 0
	}
	if len(intervals) != 3 || intervals[0] >= intervals[1] || intervals[1] >= intervals[2] {
		t.Fatalf("probes after %v sweeps, want three, each interval longer than the last", intervals)
	}
	if p.tp.sndBuf.cc != len(src) {
		t.Fatalf("%d of %d bytes queued after the probes", p.tp.sndBuf.cc, len(src))
	}

	n = len(p.out)
	p.inject(withWindow(tcpSegment(segPeerPort, fuzzPort, p.seq, p.ack, thACK, nil), 65535))
	sent := 0
	for _, sg := range p.out[n:] {
		sent += sg.n
	}
	if sent != len(src) {
		t.Fatalf("the window update released %d bytes in %+v, want %d", sent, p.out[n:], len(src))
	}
	if p.tp.timers[tPersist] != 0 || p.tp.rxtShift != 0 {
		t.Errorf("persist timer %d, backoff %d after the window opened; want both 0", p.tp.timers[tPersist], p.tp.rxtShift)
	}
}
