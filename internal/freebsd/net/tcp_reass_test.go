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
// plays.
type segPeer struct {
	t    *testing.T
	s    *Stack
	conn com.Socket
	tp   *tcpcb
	seq  uint32   // the peer's first data sequence number
	ack  uint32   // what the peer acknowledges: the stack's ISS + 1
	acks []uint32 // ack field of every TCP segment the stack sent
}

const segPeerPort = 2000

func newSegPeer(t *testing.T) *segPeer {
	t.Helper()
	s := bareStack(t)
	s.Ifconfig(fuzzIP, IPAddr{255, 255, 255, 0})
	p := &segPeer{t: t, s: s}
	// A resolved neighbour and a transmit sink: replies leave the stack
	// (and are freed) instead of waiting on ARP.
	s.arpMu.Lock()
	s.arp.entries[fuzzPeer] = &arpEntry{valid: true, mac: [6]byte{2, 0, 0, 0, 0, 2}}
	s.arpMu.Unlock()
	s.ifAttach([6]byte{2, 0, 0, 0, 0, 1}, func(m *Mbuf) {
		frame := make([]byte, m.PktLen)
		m.CopyData(0, m.PktLen, frame)
		m.FreeChain()
		if tcp := frame[etherHdrLen+ipHdrLen:]; frame[etherHdrLen+9] == ProtoTCP {
			p.acks = append(p.acks, binary.BigEndian.Uint32(tcp[8:12]))
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

func (p *segPeer) inject(seg []byte) {
	p.t.Helper()
	inject(p.t, p.s, seg, func(m *Mbuf) { p.s.tcpInput(m, fuzzPeer, fuzzIP, nil) })
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
	if last := p.acks[len(p.acks)-1]; last != p.seq+uint32(len(src)) {
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
