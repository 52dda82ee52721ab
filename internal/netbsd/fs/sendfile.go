package netbsdfs

import (
	"sync"

	"oskit/internal/com"
)

// The file-side half of the zero-copy serving path (E15): a vnode
// answers com.SendfileIID (§4.4.2 negotiation — default File bindings
// never see it) and MapFileSG exports a byte range of the file as a
// filePin, an SGBufIO whose fragment list aliases the buffer cache's
// own block storage.  Each underlying buffer is pinned (an eviction
// barrier, see buf.go) for the life of the pin object; the socket
// layer wraps the fragments as external mbufs that AddRef the pin, so
// the pages stay put until the last in-flight mbuf — including every
// retransmit copy — is freed, at which point OnLastRelease unpins.

// maxPinBlocks caps one MapFileSG call.  The cache has nbufs buffers
// and FFS metadata reads (indirect blocks, inodes) need evictable ones,
// so a single export may not pin more than a quarter of the cache;
// callers serve large files in windows, which the socket layer's
// send-buffer flow control forces anyway.  The same bound caps one
// cluster read (breadRun), the other way one caller holds buffers busy.
const maxPinBlocks = nbufs / 4

// filePin is one pinned scatter-gather export of a file range.  Pins
// are recycled through the file system's pinCache: the last Release
// unpins the pages and returns the object, lists and all, so a window
// exported in steady state allocates nothing.
type filePin struct {
	com.RefCount
	cache  *bcache
	free   *pinCache
	pinned []*buf
	parts  [][]byte
	sg     [][]byte // MapSG's result, reused
	size   uint
	next   *filePin
}

// pinCache is a file system's free list of filePin objects.  A pin is
// released from transmit completion, outside the component, so the
// list has its own lock.
type pinCache struct {
	mu   sync.Mutex
	free *filePin
}

// get returns a cleared pin bound to cache.
func (pc *pinCache) get(cache *bcache) *filePin {
	pc.mu.Lock()
	p := pc.free
	if p != nil {
		pc.free = p.next
		p.next = nil
	}
	pc.mu.Unlock()
	if p == nil {
		p = &filePin{cache: cache, free: pc}
		p.OnLastRelease = p.unpinAll
	}
	return p
}

// unpinAll is the last Release: unpin every page, then recycle.
func (p *filePin) unpinAll() {
	for _, b := range p.pinned {
		p.cache.unpin(b)
	}
	clear(p.pinned)
	clear(p.parts)
	p.pinned, p.parts, p.size = p.pinned[:0], p.parts[:0], 0
	pc := p.free
	pc.mu.Lock()
	p.next = pc.free
	pc.free = p
	pc.mu.Unlock()
}

// MapFileSG implements com.Sendfile on a regular file: resolve every
// block of [offset, offset+amount), pin it in the cache, and hand back
// the fragment list.  Ranges spanning holes fail with ErrIO (there is
// no backing page to export; the caller's copy fallback zero-fills),
// oversized ranges with ErrInval.
func (v *vnode) MapFileSG(offset, amount uint64) (sg com.SGBufIO, err error) {
	defer v.fs.enter("sendfile").leave(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return nil, err
	}
	if isDir(&di) {
		return nil, com.ErrIsDir
	}
	if amount == 0 || offset+amount < offset || offset+amount > di.size {
		return nil, com.ErrInval
	}
	firstLbn := uint32(offset / BlockSize)
	count := uint32((offset+amount-1)/BlockSize) - firstLbn + 1
	if count > maxPinBlocks {
		return nil, com.ErrInval
	}
	// Resolve the whole window first, so a hole is refused with nothing
	// pinned.
	var blks [maxPinBlocks]uint32
	for i := range count {
		blk, err := v.fs.bmap(&di, firstLbn+i, false)
		if err != nil {
			return nil, err
		}
		if blk == 0 { // hole: nothing in place to export
			return nil, com.ErrIO
		}
		blks[i] = blk
	}

	p := v.fs.pins.get(v.fs.cache)
	p.size = uint(amount)
	for i, blk := range blks[:count] {
		lbn := firstLbn + uint32(i)
		b, err := v.fs.breadFile(&di, lbn, blk, count-uint32(i))
		if err != nil {
			p.unpinAll()
			return nil, err
		}
		// Pin under B_BUSY, then release the buffer lock: the pin only
		// bars eviction, it does not lock the block against re-reads.
		v.fs.cache.pin(b)
		v.fs.cache.brelse(b)
		lo := uint64(0)
		if lbn == firstLbn {
			lo = offset % BlockSize
		}
		hi := uint64(BlockSize)
		if end := offset + amount - uint64(lbn)*BlockSize; end < hi {
			hi = end
		}
		p.pinned = append(p.pinned, b)
		p.parts = append(p.parts, b.data[lo:hi])
	}
	p.Init()
	return p, nil
}

// --- com.SGBufIO on filePin.

// QueryInterface implements com.IUnknown.
func (p *filePin) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.BlkIOIID, com.BufIOIID, com.SGBufIOIID:
		p.AddRef()
		return p, nil
	}
	return nil, com.ErrNoInterface
}

// BlockSize implements com.BlkIO.
func (p *filePin) BlockSize() uint { return 1 }

// Read implements com.BlkIO: copy out of the pinned fragments.
func (p *filePin) Read(buf []byte, offset uint64) (uint, error) {
	if offset >= uint64(p.size) {
		return 0, nil
	}
	done := uint(0)
	skip := offset
	for _, part := range p.parts {
		if skip >= uint64(len(part)) {
			skip -= uint64(len(part))
			continue
		}
		n := copy(buf[done:], part[skip:])
		skip = 0
		done += uint(n)
		if done == uint(len(buf)) {
			break
		}
	}
	return done, nil
}

// Write implements com.BlkIO: the export is read-only.
func (p *filePin) Write(buf []byte, offset uint64) (uint, error) {
	return 0, com.ErrNotImplemented
}

// Size implements com.BlkIO.
func (p *filePin) Size() (uint64, error) { return uint64(p.size), nil }

// SetSize implements com.BlkIO.
func (p *filePin) SetSize(size uint64) error { return com.ErrNotImplemented }

// Map implements com.BufIO: only ranges within one storage run are
// contiguous; anything spanning runs must go through MapSG or Read
// (the §4.7.3 contract, same as the mbuf chain).
func (p *filePin) Map(offset, amount uint) ([]byte, error) {
	if uint64(offset)+uint64(amount) > uint64(p.size) {
		return nil, com.ErrInval
	}
	skip := offset
	for _, part := range p.parts {
		if skip >= uint(len(part)) {
			skip -= uint(len(part))
			continue
		}
		if skip+amount <= uint(len(part)) {
			return part[skip : skip+amount], nil
		}
		return nil, com.ErrNotImplemented
	}
	return nil, com.ErrNotImplemented
}

// Unmap implements com.BufIO.
func (p *filePin) Unmap(buf []byte) error { return nil }

// Wire implements com.BufIO (no simulated physical address here).
func (p *filePin) Wire() (uint32, error) { return 0, com.ErrNotImplemented }

// Unwire implements com.BufIO.
func (p *filePin) Unwire() error { return nil }

// MapSG implements com.SGBufIO: the fragment list, in file order, valid
// until the pin's next MapSG.
func (p *filePin) MapSG(offset, amount uint) ([][]byte, error) {
	if uint64(offset)+uint64(amount) > uint64(p.size) {
		return nil, com.ErrInval
	}
	out := p.sg[:0]
	skip := offset
	left := amount
	for _, part := range p.parts {
		if left == 0 {
			break
		}
		if skip >= uint(len(part)) {
			skip -= uint(len(part))
			continue
		}
		run := part[skip:]
		skip = 0
		if uint(len(run)) > left {
			run = run[:left]
		}
		out = append(out, run)
		left -= uint(len(run))
	}
	p.sg = out
	return out, nil
}

// UnmapSG implements com.SGBufIO.
func (p *filePin) UnmapSG(parts [][]byte) error { return nil }

var (
	_ com.SGBufIO  = (*filePin)(nil)
	_ com.Sendfile = (*vnode)(nil)
)
