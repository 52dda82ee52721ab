package bsdnet

// The donor packet-buffer abstraction: mbufs.  Small (128-byte) mbufs
// chain together, optionally carrying 2 KB external clusters; a packet is
// a chain, and its storage is in general discontiguous — the fact the
// whole §4.7.3 conversion discussion revolves around.
//
// Clusters are reference counted so m_copym can share them; the
// reference-count table is indexed by *address arithmetic* (addr >>
// MCLSHIFT), which is only sound because the BSD malloc underneath
// guarantees natural alignment (§4.7.7, property 1) — the same
// dependency the real mbuf code had.  Freed mbufs and clusters go on the
// stack's free lists (mmbfree, mclfree) with their storage.

// vmOffset is the donor's kernel address type (vm_offset_t).
type vmOffset = uint32

// extOwner is foreign storage's owner, referenced once per mbuf that
// points into it: BSD's ext_ref/ext_free pair.
type extOwner interface {
	AddRef() uint32
	Release() uint32
}

// Donor constants.
const (
	MSIZE    = 128  // small mbuf size
	MHLEN    = 100  // usable bytes in a header mbuf (space for pkthdr)
	MLEN     = 108  // usable bytes in a plain mbuf
	MCLBYTES = 2048 // cluster size
	MCLSHIFT = 11
)

// Mbuf is one link of a packet chain.
type Mbuf struct {
	stk  *Stack
	Next *Mbuf // next link in this packet

	// blk is the MSIZE block this header owns for life, nil until mget
	// first needs one: a donor mbuf *is* its 128 bytes, so header and
	// block leave and return to the free list together.
	blk     []byte
	blkAddr vmOffset

	// store is the current storage (blk, a cluster or foreign memory);
	// data is the live view within it.
	store     []byte
	storeAddr vmOffset // 0 for external (foreign) storage
	cluster   bool
	ext       extOwner // foreign storage owner, if any

	off int // data start within store
	len int

	// PktLen is the whole-packet length, valid in the first mbuf.
	PktLen int

	// io is the chain's COM BufIO export when this mbuf heads a packet
	// handed to a driver (wrapMbuf): embedded, like the skbuff's one-word
	// COM slot (§4.7.3), so exporting a packet allocates nothing.
	io mbufIO
}

// mcluster is a cluster on the stack's free list (the donor's mclfree).
type mcluster struct {
	addr vmOffset
	buf  []byte
}

// newMbuf takes a header from the stack's free list (the donor's
// mmbfree), with the block it owns if it has one; only the counters
// (mbuf.allocs, mbuf.frees) see each use.  A header is built once, with
// its BufIO export bound to it.
func (s *Stack) newMbuf() *Mbuf {
	s.freeMu.Lock()
	m := s.mbufFree
	if m != nil {
		s.mbufFree = m.Next
		if m.blk != nil {
			s.sc.mbufFree.Add(-1)
		}
	}
	s.freeMu.Unlock()
	if m == nil {
		m = &Mbuf{stk: s}
		m.io.m = m
		m.io.OnLastRelease = m.FreeChain
	}
	m.Next = nil
	return m
}

// Data returns the live bytes of this link.
func (m *Mbuf) Data() []byte { return m.store[m.off : m.off+m.len] }

// Len returns this link's byte count.
func (m *Mbuf) Len() int { return m.len }

// MGetHdr allocates a packet-header mbuf: its data area is the MHLEN
// bytes behind the packet header, empty, at the front.
func (s *Stack) MGetHdr() *Mbuf {
	return s.mget(MSIZE - MHLEN)
}

// MGet allocates a plain mbuf.
func (s *Stack) MGet() *Mbuf {
	return s.mget(MSIZE - MLEN)
}

// mget is MGET: a header and its block off the free list, the BSD
// malloc asked only for a header that has no block yet (one that cannot
// get one is left to the collector).
func (s *Stack) mget(leading int) *Mbuf {
	m := s.newMbuf()
	if m.blk == nil {
		var ok bool
		if m.blkAddr, m.blk, ok = s.g.Malloc.Alloc(MSIZE); !ok {
			return nil
		}
	}
	s.sc.mbufAllocs.Inc()
	m.store, m.storeAddr, m.off = m.blk, m.blkAddr, leading
	return m
}

// maxLinkHdr is the donor's max_linkhdr: the link-header room a
// protocol leaves in front of the headers it builds.
const maxLinkHdr = 16

// mgetSeg is tcp_output's header mbuf: an empty MGetHdr whose data
// starts behind max_linkhdr, the IP header and hdrLen bytes of
// transport header, so those headers and the link header prepend into
// the same mbuf and a payload copied in behind them rides along.
func (s *Stack) mgetSeg(hdrLen int) *Mbuf {
	m := s.MGetHdr()
	if m != nil {
		m.off += maxLinkHdr + ipHdrLen + hdrLen
	}
	return m
}

// segRoom is the payload that rides in a segment's header mbuf.
func segRoom(hdrLen int) int { return MHLEN - maxLinkHdr - ipHdrLen - hdrLen }

// MClGet attaches a 2 KB cluster to m, replacing its current storage
// for bulk data (MCLGET): off the cluster free list, or from the BSD
// malloc when the list is empty.
func (m *Mbuf) MClGet() bool {
	s := m.stk
	var cl mcluster
	s.freeMu.Lock()
	if n := len(s.mclFree); n > 0 {
		cl = s.mclFree[n-1]
		s.mclFree = s.mclFree[:n-1]
		s.sc.clFree.Set(int64(n - 1))
		s.clRefLocked(cl.addr, nil, +1)
	}
	s.freeMu.Unlock()
	if cl.buf == nil {
		var ok bool
		if cl.addr, cl.buf, ok = s.g.Malloc.Alloc(MCLBYTES); !ok {
			return false
		}
		if cl.addr&(MCLBYTES-1) != 0 {
			// The refcount table below depends on alignment; the BSD
			// malloc guarantees it (property 1).
			s.g.Env().Panic("bsdnet: misaligned cluster %#x", cl.addr)
		}
		s.clRef(cl.addr, nil, +1)
	}
	s.sc.clAllocs.Inc()
	// Release the prior storage; the new cluster takes over.  A second
	// MCLGET on a cluster-bearing mbuf must drop the old cluster's
	// reference (and a foreign-storage mbuf its owner's), or the old
	// cluster — and anything still sharing it — leaks forever.  The
	// header's own block stays with it.
	if m.ext != nil {
		m.ext.Release()
		m.ext = nil
	} else if m.cluster {
		s.clRef(m.storeAddr, m.store, -1)
	}
	m.store, m.storeAddr, m.cluster = cl.buf, cl.addr, true
	m.off, m.len = 0, 0
	return true
}

// MExt wraps foreign contiguous memory (a mapped BufIO) as an mbuf
// without copying — the receive-path trick of §5: "the FreeBSD glue code
// is able to obtain a direct pointer to the packet data using the map
// method, and therefore never has to copy the incoming data."  The mbuf
// holds one reference on the owner.
func (s *Stack) MExt(owner extOwner, data []byte) *Mbuf {
	owner.AddRef()
	// Counts as an mbuf allocation even though the storage is foreign:
	// Free charges mbuf.frees for every link, so every construction must
	// charge mbuf.allocs or the pair won't balance over a quiesced run.
	s.sc.mbufAllocs.Inc()
	s.sc.extWraps.Inc()
	m := s.newMbuf()
	m.store, m.ext, m.len, m.PktLen = data, owner, len(data), len(data)
	return m
}

// Free releases one link, dropping cluster/foreign references, and
// returns its header to the stack's free list: m must not be touched
// after.
func (m *Mbuf) Free() *Mbuf {
	next := m.Next
	m.Next = nil
	m.FreeChain()
	return next
}

// FreeChain releases a whole packet: foreign owners first, outside the
// lock (an owner's release may run foreign code), then every link's
// cluster reference and header, with its block, under one freeMu pair.
func (m *Mbuf) FreeChain() {
	n := uint64(0)
	for cur := m; cur != nil; cur = cur.Next {
		if cur.ext != nil {
			cur.ext.Release()
			cur.ext = nil
		}
		n++
	}
	if n == 0 {
		return
	}
	s := m.stk
	s.sc.mbufFrees.Add(n)
	s.freeMu.Lock()
	for m != nil {
		next := m.Next
		if m.cluster {
			s.clRefLocked(m.storeAddr, m.store, -1)
		}
		if m.blk != nil {
			s.sc.mbufFree.Add(1)
		}
		m.store, m.storeAddr, m.cluster = nil, 0, false
		m.off, m.len, m.PktLen = 0, 0, 0
		m.Next, s.mbufFree = s.mbufFree, m
		m = next
	}
	s.freeMu.Unlock()
}

// clRef adjusts a cluster's reference count (see clRefLocked).
func (s *Stack) clRef(addr vmOffset, buf []byte, delta int) {
	s.freeMu.Lock()
	s.clRefLocked(addr, buf, delta)
	s.freeMu.Unlock()
}

// clRefLocked adjusts a cluster's reference count; at zero the cluster
// (buf, its whole storage) goes on the cluster free list.  The table is
// indexed by address — the alignment-dependent scheme described above.
// Called with freeMu held.
func (s *Stack) clRefLocked(addr vmOffset, buf []byte, delta int) {
	n := s.clSlot(addr)
	if *n += int16(delta); *n == 0 && delta < 0 {
		s.mclFree = append(s.mclFree, mcluster{addr, buf})
		s.sc.clFree.Set(int64(len(s.mclFree)))
		s.sc.clFrees.Inc()
	}
}

// clSlot returns addr's refcount cell, growing the table to cover it.
// Called with freeMu held.
func (s *Stack) clSlot(addr vmOffset) *int16 {
	idx := addr >> MCLSHIFT
	if s.mclRefcnt == nil {
		s.mclBase = idx
	}
	lo, hi := min(idx, s.mclBase), max(idx+1, s.mclBase+uint32(len(s.mclRefcnt)))
	if lo != s.mclBase || hi-lo != uint32(len(s.mclRefcnt)) {
		grown := make([]int16, hi-lo)
		copy(grown[s.mclBase-lo:], s.mclRefcnt)
		s.mclBase, s.mclRefcnt = lo, grown
	}
	return &s.mclRefcnt[idx-lo]
}

// writable reports whether m's storage may be scribbled on beyond the
// current view: foreign (ext) storage never, cluster storage only while
// unshared — BSD's M_LEADINGSPACE/M_TRAILINGSPACE rule.  Writing into a
// shared cluster would corrupt the other referents (e.g. the TCP send
// buffer under a retransmission copy).
func (m *Mbuf) writable() bool {
	if m.ext != nil {
		return false
	}
	if m.cluster && m.stk.clRefCount(m.storeAddr) > 1 {
		return false
	}
	return true
}

// clRefCount reads a cluster's reference count.
func (s *Stack) clRefCount(addr vmOffset) int16 {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return *s.clSlot(addr)
}

// last returns the final link of the chain headed by m.
func (m *Mbuf) last() *Mbuf {
	for m.Next != nil {
		m = m.Next
	}
	return m
}

// Append copies data onto the end of the chain headed by m, growing it
// with clusters (m_append).  Returns false on allocation failure.
func (m *Mbuf) Append(data []byte) bool {
	_, ok := m.appendAfter(m.last(), data)
	return ok
}

// appendAfter is Append given the chain's final link (a sockbuf keeps
// it); it returns the new one, on failure too — what was copied stays.
func (m *Mbuf) appendAfter(last *Mbuf, data []byte) (*Mbuf, bool) {
	for len(data) > 0 {
		space := len(last.store) - last.off - last.len
		if !last.writable() {
			space = 0
		}
		if space == 0 {
			n := m.stk.MGet()
			if n == nil {
				return last, false
			}
			if len(data) >= mclMin && !n.MClGet() {
				n.Free()
				return last, false
			}
			last.Next = n
			last = n
			space = len(last.store) - last.off - last.len
		}
		c := copy(last.store[last.off+last.len:], data)
		last.len += c
		m.PktLen += c
		data = data[c:]
	}
	return last, true
}

// Prepend makes room for n bytes of header in front (M_PREPEND),
// allocating a new header mbuf if the first link lacks headroom or its
// storage is shared (M_LEADINGSPACE is zero for referenced clusters).
// The new header is MH_ALIGNed — placed at the end of its data area, on
// an 8-byte boundary — so the headers prepended after it land in it too.
func (m *Mbuf) Prepend(n int) *Mbuf {
	if m.writable() && m.off >= n {
		m.off -= n
		m.len += n
		m.PktLen += n
		return m
	}
	h := m.stk.MGetHdr()
	if h == nil {
		m.FreeChain()
		return nil
	}
	if n > MHLEN {
		h.Free()
		m.FreeChain()
		return nil
	}
	h.off = MSIZE - MHLEN + (MHLEN-n)&^7
	h.len = n
	h.Next = m
	h.PktLen = m.PktLen + n
	return h
}

// Adj trims n bytes from the front (positive) or back (negative) of the
// packet (m_adj).
func (m *Mbuf) Adj(n int) {
	if n >= 0 {
		m.PktLen -= n
		cur := m
		for n > 0 && cur != nil {
			c := n
			if c > cur.len {
				c = cur.len
			}
			cur.off += c
			cur.len -= c
			n -= c
			cur = cur.Next
		}
		return
	}
	// Trim from the tail.
	trim := -n
	m.PktLen -= trim
	remain := m.PktLen
	cur := m
	for cur != nil {
		if cur.len >= remain {
			cur.len = remain
			for t := cur.Next; t != nil; t = t.Next {
				t.len = 0
			}
			return
		}
		remain -= cur.len
		cur = cur.Next
	}
}

// Pullup rearranges the chain so the first n bytes are contiguous in the
// first mbuf (m_pullup).  Returns nil (freeing the chain) on failure.
func (m *Mbuf) Pullup(n int) *Mbuf {
	if m.len >= n {
		return m
	}
	if n > MCLBYTES || n > m.PktLen {
		m.FreeChain()
		return nil
	}
	h := m.stk.MGetHdr()
	if h == nil {
		m.FreeChain()
		return nil
	}
	if n > len(h.store)-h.off && !h.MClGet() {
		h.Free()
		m.FreeChain()
		return nil
	}
	h.PktLen = m.PktLen
	// Copy n bytes in, consuming links.
	cur := m
	for h.len < n && cur != nil {
		c := copy(h.store[h.off+h.len:h.off+n], cur.Data())
		h.len += c
		cur.off += c
		cur.len -= c
		if cur.len == 0 {
			cur = cur.Free()
		}
	}
	h.Next = cur
	return h
}

// CopyData copies length bytes starting at off into dst (m_copydata).
// Returns the bytes copied.
func (m *Mbuf) CopyData(off, length int, dst []byte) int {
	copied := 0
	for cur := m; cur != nil && copied < length; cur = cur.Next {
		if off >= cur.len {
			off -= cur.len
			continue
		}
		c := copy(dst[copied:length], cur.Data()[off:])
		copied += c
		off = 0
	}
	return copied
}

// CopyM produces a new chain sharing storage where possible (m_copym):
// cluster links are shared by reference; small links are copied.
func (m *Mbuf) CopyM(off, length int) *Mbuf {
	var head, tail *Mbuf
	appendLink := func(n *Mbuf) {
		if head == nil {
			head = n
		} else {
			tail.Next = n
		}
		tail = n
	}
	remain := length
	for cur := m; cur != nil && remain > 0; cur = cur.Next {
		if off >= cur.len {
			off -= cur.len
			continue
		}
		take := cur.len - off
		if take > remain {
			take = remain
		}
		switch {
		case cur.cluster:
			// Share the cluster.
			n := m.stk.newMbuf()
			n.store, n.storeAddr, n.cluster = cur.store, cur.storeAddr, true
			n.off, n.len = cur.off+off, take
			m.stk.clRef(cur.storeAddr, nil, +1)
			m.stk.sc.mbufAllocs.Inc() // every constructed link balances a later mbuf.frees
			m.stk.sc.clShares.Inc()
			appendLink(n)
		case cur.ext != nil:
			n := m.stk.MExt(cur.ext, cur.Data()[off:off+take])
			n.PktLen = 0
			appendLink(n)
		default:
			n := m.stk.MGet()
			if n == nil {
				if head != nil {
					head.FreeChain()
				}
				return nil
			}
			n.len = copy(n.store[n.off:n.off+take], cur.Data()[off:off+take])
			appendLink(n)
		}
		remain -= take
		off = 0
	}
	if head != nil {
		head.PktLen = length - remain
	}
	return head
}

// Contiguous reports whether the whole packet lives in one run — the
// condition under which the transmit-side Map (and hence zero-copy into
// a foreign driver) succeeds.
func (m *Mbuf) Contiguous() bool {
	seen := false
	for cur := m; cur != nil; cur = cur.Next {
		if cur.len == 0 {
			continue
		}
		if seen {
			return false
		}
		seen = true
	}
	return true
}

// firstRun returns the first non-empty link.
func (m *Mbuf) firstRun() *Mbuf {
	for cur := m; cur != nil; cur = cur.Next {
		if cur.len > 0 {
			return cur
		}
	}
	return nil
}
