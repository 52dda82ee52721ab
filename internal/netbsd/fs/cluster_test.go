package netbsdfs

import (
	"bytes"
	"slices"
	"testing"

	"oskit/internal/com"
	"oskit/internal/core"
	bsdglue "oskit/internal/freebsd/glue"
)

// Cluster reads: the buffer cache fills each physically contiguous run
// of uncached blocks inside the caller's range with one device request.
// These tests count the requests on a logging device under a cold cache.

// clusterFS holds one file on a freshly remounted (cold-cache) file
// system over a logging device.
type clusterFS struct {
	fs   *FFS
	v    *vnode
	dev  *flakyDev
	body []byte   // the file's bytes, zeros in its holes
	blk  []uint32 // device block of each logical block, 0 for a hole
	ind  uint32   // the single indirect block
}

// newClusterFS writes an nblk-block file one block at a time, skipping
// the logical blocks in holes, then remounts so nothing is cached but
// the superblock and the file's inode, and clears the request log.
func newClusterFS(t *testing.T, nblk int, holes ...int) *clusterFS {
	t.Helper()
	g, raw := ramDisk(t, 512)
	fs, err := Mount(g, raw)
	if err != nil {
		t.Fatal(err)
	}
	c := &clusterFS{body: make([]byte, nblk*BlockSize)}
	for i := range c.body {
		c.body[i] = byte(i*7 + i/BlockSize)
	}
	for _, h := range holes {
		clear(c.body[h*BlockSize : (h+1)*BlockSize])
	}
	v := sfFile(t, fs, "f", nil)
	for lbn := 0; lbn < nblk; lbn++ {
		if slices.Contains(holes, lbn) {
			continue
		}
		off := lbn * BlockSize
		if _, err := v.WriteAt(c.body[off:off+BlockSize], uint64(off)); err != nil {
			t.Fatal(err)
		}
	}
	entered(fs.cache, func() {
		di, err := fs.iget(v.ino)
		if err != nil {
			t.Fatal(err)
		}
		for lbn := range uint32(nblk) {
			blk, err := fs.bmap(&di, lbn, false)
			if err != nil {
				t.Fatal(err)
			}
			c.blk = append(c.blk, blk)
		}
		c.ind = di.indirect
	})
	ino := v.ino
	v.Release()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	c.dev = &flakyDev{BlkIO: raw, failReads: map[uint32]int{}}
	if c.fs, err = Mount(g, c.dev); err != nil {
		t.Fatal(err)
	}
	raw.Release()
	c.v = c.fs.newVnode(ino)
	t.Cleanup(func() { c.v.Release() })
	if _, err := c.v.GetStat(); err != nil {
		t.Fatal(err)
	}
	c.dev.reads = nil
	return c
}

// contiguous fails the test unless logical blocks [lo, hi) sit back to
// back on the device — the layout a case relies on.
func (c *clusterFS) contiguous(t *testing.T, lo, hi int) {
	t.Helper()
	for lbn := lo + 1; lbn < hi; lbn++ {
		if c.blk[lbn] != c.blk[lo]+uint32(lbn-lo) {
			t.Fatalf("layout: lbn %d at block %d, not after lbn %d at %d", lbn, c.blk[lbn], lo, c.blk[lo])
		}
	}
}

// read reads [off, off+n) through ReadAt and checks the bytes.
func (c *clusterFS) read(t *testing.T, off, n int) {
	t.Helper()
	got := make([]byte, n)
	if k, err := c.v.ReadAt(got, uint64(off)); err != nil || k != uint(n) {
		t.Fatalf("ReadAt(%d, %d) = %d, %v", off, n, k, err)
	}
	if !bytes.Equal(got, c.body[off:off+n]) {
		t.Fatalf("ReadAt(%d, %d): wrong bytes", off, n)
	}
}

// wantReads checks the request log since the last check, then clears it.
func (c *clusterFS) wantReads(t *testing.T, want ...span) {
	t.Helper()
	if !slices.Equal(c.dev.reads, want) {
		t.Fatalf("device reads %v, want %v", c.dev.reads, want)
	}
	c.dev.reads = nil
}

// The sendfile window the HTTP server maps, eight contiguous blocks,
// costs one device request.
func TestClusterMapFileSGWindowOneRead(t *testing.T) {
	c := newClusterFS(t, 8)
	c.contiguous(t, 0, 8)
	p, err := c.v.MapFileSG(0, 8*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	c.wantReads(t, span{c.blk[0], 8})
	if got := pinRead(t, p, 8*BlockSize); !bytes.Equal(got, c.body) {
		t.Fatal("clustered window exported wrong bytes")
	}
}

// FFS lays the indirect block out between lbn 7 and lbn 8, so a window
// across that seam is two runs, after the indirect block itself.
func TestClusterRunSplitsAtIndirectBlock(t *testing.T) {
	c := newClusterFS(t, 16)
	c.contiguous(t, 0, 8)
	c.contiguous(t, 8, 16)
	if c.ind != c.blk[7]+1 || c.blk[8] != c.ind+1 {
		t.Fatalf("layout: lbn 7 at %d, indirect at %d, lbn 8 at %d", c.blk[7], c.ind, c.blk[8])
	}
	p, err := c.v.MapFileSG(4*BlockSize, 8*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	c.wantReads(t, span{c.ind, 1}, span{c.blk[4], 4}, span{c.blk[8], 4})
	if got := pinRead(t, p, 8*BlockSize); !bytes.Equal(got, c.body[4*BlockSize:12*BlockSize]) {
		t.Fatal("window across the indirect block exported wrong bytes")
	}
}

// A hole ends a run even where the blocks on either side of it are
// adjacent on the device.
func TestClusterRunSplitsAtHole(t *testing.T) {
	c := newClusterFS(t, 6, 2)
	if c.blk[2] != 0 || c.blk[3] != c.blk[1]+1 {
		t.Fatalf("layout: %v, want lbn 3 right after lbn 1 across the hole", c.blk)
	}
	c.read(t, 0, 6*BlockSize)
	c.wantReads(t, span{c.blk[0], 2}, span{c.blk[3], 3})
}

// A cached block ends the run before it; the rest of the range after it
// is the next run.
func TestClusterRunSplitsAtCachedBlock(t *testing.T) {
	c := newClusterFS(t, 8)
	c.contiguous(t, 0, 8)
	c.read(t, 3*BlockSize, BlockSize)
	c.wantReads(t, span{c.blk[3], 1})
	c.read(t, 0, 8*BlockSize)
	c.wantReads(t, span{c.blk[0], 3}, span{c.blk[4], 4})
}

// One run is at most maxPinBlocks long, however long the read.
func TestClusterRunCapped(t *testing.T) {
	c := newClusterFS(t, 8+2*maxPinBlocks)
	c.contiguous(t, 8, 8+2*maxPinBlocks)
	c.read(t, 8*BlockSize, 2*maxPinBlocks*BlockSize)
	c.wantReads(t, span{c.ind, 1}, span{c.blk[8], maxPinBlocks}, span{c.blk[8+maxPinBlocks], maxPinBlocks})
}

// A dirty block in mid-range is not re-read over: the run stops at it,
// and the read returns the dirty bytes, not the older ones on disk.
func TestClusterRunKeepsDirtyBlock(t *testing.T) {
	c := newClusterFS(t, 8)
	c.contiguous(t, 0, 8)
	fresh := bytes.Repeat([]byte{0xEE}, BlockSize)
	if _, err := c.v.WriteAt(fresh, 3*BlockSize); err != nil {
		t.Fatal(err)
	}
	copy(c.body[3*BlockSize:], fresh)
	c.wantReads(t, span{c.blk[3], 1})
	c.read(t, 0, 8*BlockSize)
	c.wantReads(t, span{c.blk[0], 3}, span{c.blk[4], 4})

	onDisk := make([]byte, BlockSize)
	if _, err := c.dev.BlkIO.Read(onDisk, uint64(c.blk[3])*BlockSize); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(onDisk, fresh) {
		t.Fatal("the write reached the disk before Sync: the case tests nothing")
	}
	if err := c.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.dev.BlkIO.Read(onDisk, uint64(c.blk[3])*BlockSize); err != nil || !bytes.Equal(onDisk, fresh) {
		t.Fatalf("Sync wrote back other bytes than the dirty block's (%v)", err)
	}
}

// The run's tail takes only clean victims: with the cache full of
// another file's unwritten blocks, a cold read must not recycle them
// without writing them back.
func TestClusterRunSkipsDirtyVictims(t *testing.T) {
	c := newClusterFS(t, 8)
	other := bytes.Repeat([]byte{0x5A}, nbufs*BlockSize)
	o := sfFile(t, c.fs, "other", other)
	defer o.Release()
	dirty := 0
	for _, b := range c.fs.cache.bufs {
		if b.dirty {
			dirty++
		}
	}
	if dirty < nbufs/2 {
		t.Fatalf("only %d of %d buffers dirty: the case tests nothing", dirty, nbufs)
	}
	c.read(t, 0, 8*BlockSize)
	got := make([]byte, len(other))
	if _, err := o.ReadAt(got, 0); err != nil || !bytes.Equal(got, other) {
		t.Fatalf("the other file lost its unwritten blocks (%v)", err)
	}
}

// A failed run leaves none of its blocks cached — not valid, not busy,
// not hashed — and the retry reads the same run again.
func TestClusterFailedRunLeavesNothing(t *testing.T) {
	c := newClusterFS(t, 8)
	c.contiguous(t, 0, 8)
	c.dev.failReads[c.blk[5]] = 1
	if _, err := c.v.ReadAt(make([]byte, 8*BlockSize), 0); err != com.ErrIO {
		t.Fatalf("faulted ReadAt = %v, want ErrIO", err)
	}
	c.wantReads(t, span{c.blk[0], 8})
	for lbn, blk := range c.blk {
		if b := c.fs.cache.hash[blk]; b != nil {
			t.Fatalf("lbn %d still hashed after the failed run (valid=%v busy=%v)", lbn, b.valid, b.busy)
		}
	}
	for _, b := range c.fs.cache.bufs {
		if b.busy {
			t.Fatalf("buffer for block %d left busy", b.blkno)
		}
	}
	c.read(t, 0, 8*BlockSize)
	c.wantReads(t, span{c.blk[0], 8})
}

// FuzzClusterRead drives one file through random writes, syncs,
// evictions, injected read faults, and readi and MapFileSG ranges.
// Every read is checked against the bytes as written — what a cache
// that reads one block at a time returns — and after every step each
// valid clean buffer must equal its block on the disk, so no run ever
// overwrote a cached block or left one stale.
func FuzzClusterRead(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 3, 0, 0, 0xff, 0xff, 0})
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 0, 0x20, 0, 0xff, 0xff, 1, 2, 0xff, 4, 0, 0, 0, 0xff, 1, 3, 0, 0x10, 0x40, 0, 4})
	f.Add([]byte{0, 0, 0x10, 0x10, 0x10, 0, 0x80, 0, 3, 3, 2, 0x55, 3, 0, 0, 0x30, 0, 0, 5, 4, 0, 0x01, 0, 0, 8})
	g0 := testGlue(f)
	f.Fuzz(func(t *testing.T, ops []byte) { clusterFuzz(t, g0, ops) })
}

// clusterFuzz is one FuzzClusterRead input, on a fresh file system in a
// fresh environment of the shared machine g0 runs on.
func clusterFuzz(t *testing.T, g0 *bsdglue.Glue, ops []byte) {
	raw := com.NewMemBuf(make([]byte, 256*BlockSize))
	if err := Mkfs(raw, 0); err != nil {
		t.Fatal(err)
	}
	dev := &flakyDev{BlkIO: raw, failReads: map[uint32]int{}}
	fs, err := Mount(bsdglue.New(core.NewEnv(g0.Env().Machine, nil)), dev)
	if err != nil {
		t.Fatal(err)
	}
	v := sfFile(t, fs, "f", nil)
	defer v.Release()
	var pins []com.SGBufIO
	defer func() {
		for _, p := range pins {
			p.Release()
		}
		if n := fs.cache.gPinned.Load(); n != 0 {
			t.Fatalf("%d buffers pinned after every export was released", n)
		}
	}()

	var model []byte          // the file as written, zeros in holes
	written := map[int]bool{} // logical blocks that are not holes
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// arm fails the next read of one early data block, sometimes.
	arm := func() {
		if k := next(); k%4 == 0 {
			dev.failReads[fs.sb.dataStart+uint32(k/4)%48] = 1
		}
	}
	// retry repeats op once after an injected fault.
	retry := func(op func() error) error {
		err := op()
		if err == com.ErrIO && len(dev.failReads) > 0 {
			clear(dev.failReads)
			err = op()
		}
		clear(dev.failReads)
		return err
	}
	// release drops the oldest export.
	release := func() {
		if len(pins) > 0 {
			pins[0].Release()
			pins = pins[1:]
		}
	}
	const maxFile = 40 * BlockSize
	for step := 0; len(ops) > 0; step++ {
		switch next() % 6 {
		case 0: // write
			off := (next()<<8 | next()) % maxFile
			data := make([]byte, 1+(next()<<4|next()&15)%(4*BlockSize))
			for i := range data {
				data[i] = byte(step*31+i) | 1
			}
			if _, err := v.WriteAt(data, uint64(off)); err != nil {
				t.Fatalf("step %d: WriteAt: %v", step, err)
			}
			if end := off + len(data); end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[off:], data)
			for lbn := off / BlockSize; lbn <= (off+len(data)-1)/BlockSize; lbn++ {
				written[lbn] = true
			}
		case 1:
			if err := fs.Sync(); err != nil {
				t.Fatalf("step %d: Sync: %v", step, err)
			}
		case 2: // evict some idle, clean, unpinned buffers
			mask := next()
			entered(fs.cache, func() {
				for i, b := range fs.cache.bufs {
					if mask>>(i%8)&1 == 1 && !b.busy && !b.dirty && b.pins.Load() == 0 {
						// A buffer a failed read unhashed keeps its
						// old number, which another buffer may hold
						// by now.
						if fs.cache.hash[b.blkno] == b {
							delete(fs.cache.hash, b.blkno)
						}
						b.blkno, b.valid = ^uint32(0), false
					}
				}
			})
		case 3: // readi
			if len(model) == 0 {
				continue
			}
			off := (next()<<8 | next()) % len(model)
			got := make([]byte, 1+(next()<<8|next())%(len(model)-off))
			arm()
			if err := retry(func() error { _, err := v.ReadAt(got, uint64(off)); return err }); err != nil {
				t.Fatalf("step %d: ReadAt(%d, %d): %v", step, off, len(got), err)
			}
			if !bytes.Equal(got, model[off:off+len(got)]) {
				t.Fatalf("step %d: ReadAt(%d, %d): wrong bytes", step, off, len(got))
			}
		case 4: // MapFileSG
			if len(model) == 0 {
				continue
			}
			off := (next()<<8 | next()) % len(model)
			n := 1 + (next()<<8|next())%min(len(model)-off, maxPinBlocks*BlockSize-off%BlockSize)
			hole := false
			for lbn := off / BlockSize; lbn <= (off+n-1)/BlockSize; lbn++ {
				hole = hole || !written[lbn]
			}
			var p com.SGBufIO
			arm()
			err := retry(func() (err error) { p, err = v.MapFileSG(uint64(off), uint64(n)); return err })
			if hole {
				if err != com.ErrIO {
					t.Fatalf("step %d: MapFileSG(%d, %d) over a hole = %v, want ErrIO", step, off, n, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: MapFileSG(%d, %d): %v", step, off, n, err)
			}
			if got := pinRead(t, p, uint(n)); !bytes.Equal(got, model[off:off+n]) {
				t.Fatalf("step %d: MapFileSG(%d, %d): wrong bytes", step, off, n)
			}
			pins = append(pins, p)
		case 5:
			release()
		}
		if len(pins) > 2 {
			// Hold at most two windows: a cache pinned solid would
			// leave getblk asleep with no unpin to come.
			release()
		}
		checkCache(t, fs.cache, raw)
	}
}

// checkCache holds the cache to its invariants at rest: nothing busy,
// every hash entry named by its buffer's block, every valid buffer
// hashed, nothing hashed invalid, and every valid clean buffer equal to
// its block on the disk.
func checkCache(t *testing.T, c *bcache, disk com.BlkIO) {
	t.Helper()
	for blkno, b := range c.hash {
		if b.blkno != blkno {
			t.Fatalf("hash[%d] holds the buffer of block %d", blkno, b.blkno)
		}
	}
	onDisk := make([]byte, BlockSize)
	for _, b := range c.bufs {
		hashed := c.hash[b.blkno] == b
		switch {
		case b.busy:
			t.Fatalf("block %d left busy", b.blkno)
		case b.valid != hashed:
			t.Fatalf("block %d valid=%v hashed=%v", b.blkno, b.valid, hashed)
		case b.valid && !b.dirty:
			if _, err := disk.Read(onDisk, uint64(b.blkno)*BlockSize); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, b.data) {
				t.Fatalf("clean cached block %d differs from the disk", b.blkno)
			}
		}
	}
}
