package bsdnet

// Socket buffers, BSD style: an mbuf chain plus occupancy accounting and
// a sleep event.  TCP's send buffer is the retransmission store (data
// stays until acked, tcp_output shares it via CopyM); the receive buffer
// is where tcp_input links or copies in-order data for readers to drain.

const defaultSockbufBytes = 16384

// mclMin is the least data worth a cluster-sized buffer, one threshold
// for both ways of holding one.  Received (4.4BSD's sbcompress rule): a
// segment of at least this many bytes is linked into the receive buffer
// in the driver buffer it arrived in (rxOne's wrap); a smaller one is
// copied into the tail and its buffer released.  Allocated (MINCLSIZE):
// m_append takes a cluster only for this much, small mbufs below.  So a
// sockbuf pins at most 4 × hiwat of driver or stack memory however small
// the segments or writes (the reassembly queue is capped the same).
const mclMin = MCLBYTES / 4

// A sockbuf lives under the stack lock, like the pcb embedding it.
// hiwat is config-ish but SO_RCVBUF/SO_SNDBUF mutate it after traffic
// starts, so it is guarded rather than initonly.
//
//oskit:guardedby s.mu
type sockbuf struct {
	s     *Stack //oskit:initonly
	head  *Mbuf
	tail  *Mbuf  // head's last link (nil with head): appends never walk the chain
	cc    int    // bytes buffered
	hiwat int    // limit
	event uint32 //oskit:initonly
}

func (sb *sockbuf) init(s *Stack) {
	sb.s = s
	sb.hiwat = defaultSockbufBytes
	sb.event = s.newEvent()
}

// space returns the free room.
func (sb *sockbuf) space() int {
	n := sb.hiwat - sb.cc
	if n < 0 {
		return 0
	}
	return n
}

// appendData copies user bytes in (sbappend of a fresh chain).
func (sb *sockbuf) appendData(data []byte) bool {
	if sb.head == nil {
		m := sb.s.MGetHdr()
		if m == nil {
			return false
		}
		if len(data) >= mclMin && !m.MClGet() {
			m.Free()
			return false
		}
		sb.head, sb.tail = m, m
	}
	var ok bool
	if sb.tail, ok = sb.head.appendAfter(sb.tail, data); !ok {
		// Memory ran out part-way.  Take back what was copied — bytes cc
		// does not count would be read (or sent) as stream data — and
		// have drop release a chain that leaves wholly empty.
		sb.head.Adj(sb.cc - sb.head.PktLen)
		sb.drop(0)
		return false
	}
	sb.cc += len(data)
	sb.s.sc.sockbufCC.Set(int64(sb.cc))
	return true
}

// appendChain links an mbuf chain in (sbappend), taking ownership.
func (sb *sockbuf) appendChain(m *Mbuf) {
	n := m.PktLen
	if sb.head == nil {
		sb.head = m
	} else {
		sb.tail.Next = m
		sb.head.PktLen += n
		m.PktLen = 0
	}
	sb.tail = m.last()
	sb.cc += n
	sb.s.sc.sockbufCC.Set(int64(sb.cc))
}

// appendSeg takes one received segment's data chain: linked in at or
// above mclMin, copied and freed below it.  A copy that cannot get
// memory links instead, so acknowledged bytes are never dropped.
func (sb *sockbuf) appendSeg(m *Mbuf) {
	if m.PktLen < mclMin {
		var flat [mclMin]byte
		if sb.appendData(flat[:m.CopyData(0, m.PktLen, flat[:])]) {
			m.FreeChain()
			return
		}
	}
	sb.appendChain(m)
}

// drop discards n bytes from the front (sbdrop — TCP ack processing).
func (sb *sockbuf) drop(n int) {
	if n > sb.cc {
		n = sb.cc
	}
	sb.cc -= n
	remain := n
	m := sb.head
	// Empty links (what m_adj leaves of a trimmed segment) go with the
	// data in front of them, so a drained buffer holds no storage.
	for m != nil && (remain > 0 || m.len == 0) {
		if m.len > remain {
			m.off += remain
			m.len -= remain
			break
		}
		remain -= m.len
		m = m.Free()
	}
	sb.head = m
	if m != nil {
		m.PktLen = sb.cc
	} else {
		sb.tail = nil
	}
	sb.s.sc.sockbufCC.Set(int64(sb.cc))
}

// read copies up to len(dst) bytes out and drops them.
func (sb *sockbuf) read(dst []byte) int {
	if sb.head == nil || sb.cc == 0 {
		return 0
	}
	want := len(dst)
	if want > sb.cc {
		want = sb.cc
	}
	n := sb.head.CopyData(0, want, dst)
	sb.drop(n)
	return n
}

// flush releases everything.
func (sb *sockbuf) flush() {
	if sb.head != nil {
		sb.head.FreeChain()
		sb.head, sb.tail = nil, nil
	}
	sb.cc = 0
	sb.s.sc.sockbufCC.Set(0)
}
