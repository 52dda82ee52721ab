// Package netbsdfs is the kit's NetBSD-derived disk file system (paper
// §3.8).  NetBSD's file system code was chosen by the OSKit because it
// was the most cleanly separated from its virtual memory system; the
// kit's version keeps that shape: a buffer cache over any BlkIO, an
// FFS-style on-disk layout (superblock, bitmaps, inode table with
// direct/indirect/double-indirect blocks, directory files), and a thin
// COM glue exporting FileSystem/Dir/File whose names are single pathname
// components — the granularity that let the Utah secure file server
// interpose per-component permission checks without touching these
// internals.
//
// The donor execution environment is the BSD glue: blocking in the
// buffer cache goes through sleep/wakeup (B_BUSY/B_WANTED, §4.7.6), and
// the code expects to run under the blocking model of §4.7.4 — one
// process-level thread inside the component at a time, the component
// lock held, and released only across a sleep or a device call.
package netbsdfs

import (
	"sync/atomic"

	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/stats"
)

// BlockSize is the file system block size.
const BlockSize = 1024

// Buffer-cache geometry.
const nbufs = 64

// buf is one cache buffer (struct buf, pruned).
type buf struct {
	blkno uint32
	data  []byte
	valid bool
	dirty bool
	busy  bool
	want  bool

	lruPrev, lruNext *buf
	event            uint32

	// pins counts sendfile exports holding this buffer's pages on the
	// wire (E15).  A pinned buffer stays cached — getblk's eviction
	// scan skips it — so the external mbufs referencing b.data keep
	// seeing the block they mapped.  Atomic because unpin runs from
	// transmit-completion context (the network side releasing the last
	// mbuf reference), not under the FFS component entry.
	pins atomic.Int32
}

// blkdev is the device under the cache: the methods this component
// calls on it, which the glue's com.BlkIO provides.
type blkdev interface {
	Read(buf []byte, offset uint64) (uint, error)
	Write(buf []byte, offset uint64) (uint, error)
	Size() (uint64, error)
}

// bcache is the buffer cache for one mounted file system.
type bcache struct {
	g    *bsdglue.Glue
	mu   *fsLock // the file system's component lock
	dev  blkdev
	bufs [nbufs]*buf
	// hash by block number; small and simple.
	hash map[uint32]*buf
	// LRU list: head = most recent.
	lruHead, lruTail *buf

	// stages receive cluster reads before they are copied into the
	// runs' buffers.  One is taken for each read and put back after it,
	// so the list holds as many as readers were ever in the driver at
	// once (the device call drops the lock).
	stages [][]byte

	// needbuf is NetBSD's needbuffer: a getblk found no victim and
	// sleeps on bufEvent until a brelse or an unpin makes one.
	needbuf  bool
	bufEvent uint32

	// The buffer-cache behaviour counters, set "netbsd_fs", which the
	// glue registers at mount so ttcp-style rigs and oskit-stats see hit
	// rates next to the disk traffic.
	set      *stats.Set
	scReads  *stats.Counter
	scWrites *stats.Counter
	scHits   *stats.Counter
	scMisses *stats.Counter
	scPins   *stats.Counter
	scUnpins *stats.Counter
	gPinned  *stats.Gauge
}

func newBcache(g *bsdglue.Glue, mu *fsLock, dev blkdev, eventBase uint32) *bcache {
	set := stats.NewSet("netbsd_fs")
	c := &bcache{g: g, mu: mu, dev: dev, hash: map[uint32]*buf{}, bufEvent: eventBase + nbufs*8, set: set}
	c.scReads = set.Counter("bcache.disk_reads")
	c.scWrites = set.Counter("bcache.disk_writes")
	c.scHits = set.Counter("bcache.hits")
	c.scMisses = set.Counter("bcache.misses")
	c.scPins = set.Counter("bcache.pins")
	c.scUnpins = set.Counter("bcache.unpins")
	c.gPinned = set.Gauge("bcache.pinned")
	for i := range c.bufs {
		b := &buf{data: make([]byte, BlockSize), blkno: ^uint32(0), event: eventBase + uint32(i)*8}
		c.bufs[i] = b
		c.lruPush(b)
	}
	return c
}

func (c *bcache) lruPush(b *buf) {
	b.lruPrev = nil
	b.lruNext = c.lruHead
	if c.lruHead != nil {
		c.lruHead.lruPrev = b
	}
	c.lruHead = b
	if c.lruTail == nil {
		c.lruTail = b
	}
}

func (c *bcache) lruRemove(b *buf) {
	if b.lruPrev != nil {
		b.lruPrev.lruNext = b.lruNext
	} else if c.lruHead == b {
		c.lruHead = b.lruNext
	}
	if b.lruNext != nil {
		b.lruNext.lruPrev = b.lruPrev
	} else if c.lruTail == b {
		c.lruTail = b.lruPrev
	}
	b.lruPrev, b.lruNext = nil, nil
}

// getblk locks the buffer for blkno, evicting the LRU victim if needed.
// Blocks while the wanted buffer is busy — the donor B_BUSY/B_WANTED
// protocol — and while no buffer is evictable.
func (c *bcache) getblk(blkno uint32) (*buf, error) {
	for {
		if b, ok := c.hash[blkno]; ok {
			if b.busy {
				b.want = true
				c.sleep(c.g.SleepPrepare(b.event, "getblk"))
				continue
			}
			b.busy = true
			c.lruRemove(b)
			c.scHits.Inc()
			return b, nil
		}
		v := c.victim(false)
		switch {
		case v == nil:
			// Everything busy or pinned: wait for a brelse or an unpin.
			// Unpins come without the lock: rescan once prepared.
			c.needbuf = true
			p := c.g.SleepPrepare(c.bufEvent, "bufwait")
			if c.victim(false) != nil {
				c.g.Wakeup(c.bufEvent)
			}
			c.sleep(p)
		case v.dirty:
			// The write drops the lock, and another entry may cache
			// blkno meanwhile, so clean v and rescan.
			if err := c.writeback(v); err != nil {
				return nil, err
			}
		default:
			c.assign(v, blkno)
			return v, nil
		}
	}
}

// victim returns the least recently used buffer that is idle, unpinned
// and — when clean is set — not dirty, or nil.  Pinned buffers (pages
// on the wire via sendfile) are never victims: eviction would re-point
// b.data at another block while external mbufs still reference it.
func (c *bcache) victim(clean bool) *buf {
	v := c.lruTail
	for v != nil && (v.busy || v.pins.Load() > 0 || clean && v.dirty) {
		v = v.lruPrev
	}
	return v
}

// assign re-identifies the clean victim v as blkno, locked and invalid,
// unhashing its old identity.
func (c *bcache) assign(v *buf, blkno uint32) {
	if c.hash[v.blkno] == v {
		delete(c.hash, v.blkno)
	}
	v.blkno, v.valid, v.busy = blkno, false, true
	c.lruRemove(v)
	c.hash[blkno] = v
	c.scMisses.Inc()
}

// bread returns the locked, filled buffer for blkno.
func (c *bcache) bread(blkno uint32) (*buf, error) { return c.breadRun(blkno, 1) }

// breadRun returns the locked, filled buffer for blkno.  On a miss the
// same device request also fills up to n−1 following blocks, which the
// caller vouches it asked for (McVoy & Kleiman's cluster read, USENIX
// 1991), at most maxPinBlocks in all.  The run's tail never sleeps or
// writes back: it stops at the first block already cached, in any
// state, or with no clean, idle, unpinned victim left, so a cached or
// dirty block is never overwritten.  Tail buffers come back released.
// A failed read unhashes the whole run — none of it stays valid or
// aliases its block number — and wakes every waiter; bread retries.
func (c *bcache) breadRun(blkno, n uint32) (*buf, error) {
	b, err := c.getblk(blkno)
	if err != nil || b.valid {
		return b, err
	}
	var run [maxPinBlocks]*buf
	run[0] = b
	k := uint32(1)
	for ; k < min(n, maxPinBlocks); k++ {
		if _, cached := c.hash[blkno+k]; cached {
			break
		}
		v := c.victim(true)
		if v == nil {
			break
		}
		c.assign(v, blkno+k)
		run[k] = v
	}
	var stage []byte
	if last := len(c.stages) - 1; last >= 0 {
		stage, c.stages = c.stages[last], c.stages[:last]
	} else {
		stage = make([]byte, maxPinBlocks*BlockSize)
	}
	var got uint
	c.io(func() { got, err = c.dev.Read(stage[:k*BlockSize], uint64(blkno)*BlockSize) })
	ok := err == nil && got == uint(k)*BlockSize
	for i, t := range run[:k] {
		if ok {
			copy(t.data, stage[i*BlockSize:])
			t.valid = true
		} else {
			delete(c.hash, t.blkno)
		}
		if i > 0 || !ok {
			c.brelse(t)
		}
	}
	c.stages = append(c.stages, stage)
	if !ok {
		return nil, bsdglue.EIO
	}
	c.scReads.Add(uint64(k))
	return b, nil
}

// brelse unlocks a buffer to the head of the LRU list.
func (c *bcache) brelse(b *buf) {
	c.lruPush(b)
	c.unbusy(b)
}

// unbusy clears b's busy mark, waking its waiters and any getblk that
// found no victim.
func (c *bcache) unbusy(b *buf) {
	b.busy = false
	if b.want {
		b.want = false
		c.g.Wakeup(b.event)
	}
	if c.needbuf {
		c.needbuf = false
		c.g.Wakeup(c.bufEvent)
	}
}

// bdwrite marks the buffer dirty and releases it (delayed write).
func (c *bcache) bdwrite(b *buf) {
	b.dirty = true
	c.brelse(b)
}

// writeback flushes the idle buffer b.  b stays busy across the device
// call, as under NetBSD's B_BUSY, so no entry can change and re-dirty it
// while the lock is down, and it keeps its place on the LRU list.
func (c *bcache) writeback(b *buf) (err error) {
	b.busy = true
	var n uint
	c.io(func() { n, err = c.dev.Write(b.data, uint64(b.blkno)*BlockSize) })
	c.unbusy(b)
	if err != nil || n != BlockSize {
		return bsdglue.EIO
	}
	b.dirty = false
	c.scWrites.Inc()
	return nil
}

// pin adds one eviction barrier to b.  Called with b held busy (the
// sendfile export path pins under bread), so the count is in place
// before any other entry could pick b as a victim.
func (c *bcache) pin(b *buf) {
	b.pins.Add(1)
	c.scPins.Inc()
	c.gPinned.Add(1)
}

// unpin drops one eviction barrier.  Runs from transmit-completion
// context — the network stack releasing the last reference on an
// external mbuf — NOT under the FFS component entry, so it touches
// only atomics plus the interrupt-safe Wakeup.  Dropping to zero wakes
// the "bufwait" sleepers: a getblk that found everything busy-or-
// pinned rescans once a buffer becomes evictable again.
func (c *bcache) unpin(b *buf) {
	if b.pins.Add(-1) == 0 {
		c.g.Wakeup(c.bufEvent)
	}
	c.scUnpins.Inc()
	c.gPinned.Add(-1)
}

// sync flushes every dirty buffer.
func (c *bcache) sync() error {
	for _, b := range c.bufs {
		if b.valid && b.dirty && !b.busy {
			if err := c.writeback(b); err != nil {
				return err
			}
		}
	}
	return nil
}
