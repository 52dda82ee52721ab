package netbsdfs

import (
	"encoding/binary"

	bsdglue "oskit/internal/freebsd/glue"
)

// On-disk layout (all integers little-endian):
//
//	block 0:            superblock
//	inodeBitmapStart:   one bit per inode
//	blockBitmapStart:   one bit per block (whole device)
//	inodeTableStart:    64-byte inodes
//	dataStart:          data blocks
//
// Inode: mode u16, nlink u16, uid u16, gid u16, size u64, mtime u64,
// direct[8] u32, indirect u32, dindirect u32, pad to 64.

// Layout constants.
const (
	Magic = 0x0FF51997

	InodeSize = 64
	NDirect   = 8
	ptrsPerBl = BlockSize / 4

	// RootIno is the root directory's inode number (0 is "no inode").
	RootIno = 1
)

type superblock struct {
	magic            uint32
	nblocks          uint32
	ninodes          uint32
	inodeBitmapStart uint32
	blockBitmapStart uint32
	inodeTableStart  uint32
	dataStart        uint32
	freeBlocks       uint32
	freeInodes       uint32
}

func (sb *superblock) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.magic)
	le.PutUint32(b[4:], sb.nblocks)
	le.PutUint32(b[8:], sb.ninodes)
	le.PutUint32(b[12:], sb.inodeBitmapStart)
	le.PutUint32(b[16:], sb.blockBitmapStart)
	le.PutUint32(b[20:], sb.inodeTableStart)
	le.PutUint32(b[24:], sb.dataStart)
	le.PutUint32(b[28:], sb.freeBlocks)
	le.PutUint32(b[32:], sb.freeInodes)
}

func (sb *superblock) decode(b []byte) {
	le := binary.LittleEndian
	sb.magic = le.Uint32(b[0:])
	sb.nblocks = le.Uint32(b[4:])
	sb.ninodes = le.Uint32(b[8:])
	sb.inodeBitmapStart = le.Uint32(b[12:])
	sb.blockBitmapStart = le.Uint32(b[16:])
	sb.inodeTableStart = le.Uint32(b[20:])
	sb.dataStart = le.Uint32(b[24:])
	sb.freeBlocks = le.Uint32(b[28:])
	sb.freeInodes = le.Uint32(b[32:])
}

// dinode is the in-memory image of an on-disk inode.
type dinode struct {
	mode, nlink uint16
	uid, gid    uint16
	size        uint64
	mtime       uint64
	direct      [NDirect]uint32
	indirect    uint32
	dindirect   uint32
}

func (di *dinode) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], di.mode)
	le.PutUint16(b[2:], di.nlink)
	le.PutUint16(b[4:], di.uid)
	le.PutUint16(b[6:], di.gid)
	le.PutUint64(b[8:], di.size)
	le.PutUint64(b[16:], di.mtime)
	for i := 0; i < NDirect; i++ {
		le.PutUint32(b[24+i*4:], di.direct[i])
	}
	le.PutUint32(b[56:], di.indirect)
	le.PutUint32(b[60:], di.dindirect)
}

func (di *dinode) decode(b []byte) {
	le := binary.LittleEndian
	di.mode = le.Uint16(b[0:])
	di.nlink = le.Uint16(b[2:])
	di.uid = le.Uint16(b[4:])
	di.gid = le.Uint16(b[6:])
	di.size = le.Uint64(b[8:])
	di.mtime = le.Uint64(b[16:])
	for i := 0; i < NDirect; i++ {
		di.direct[i] = le.Uint32(b[24+i*4:])
	}
	di.indirect = le.Uint32(b[56:])
	di.dindirect = le.Uint32(b[60:])
}

// FFS is one mounted file system.
type FFS struct {
	mu    fsLock // the component lock (glue.go)
	g     *bsdglue.Glue
	dev   blkdev
	cache *bcache
	sb    superblock

	unmounted bool

	pins pinCache // sendfile's recycled pin objects (sendfile.go)
}

// mount reads the superblock and prepares the cache.
func mount(g *bsdglue.Glue, dev blkdev) (fs *FFS, err error) {
	fs = &FFS{g: g, dev: dev}
	fs.cache = newBcache(g, &fs.mu, dev, 0x70000000)
	defer fs.enter("mount").leave(&err)
	b, err := fs.cache.bread(0)
	if err != nil {
		return nil, err
	}
	fs.sb.decode(b.data)
	fs.cache.brelse(b)
	if fs.sb.magic != Magic {
		return nil, bsdglue.EINVAL
	}
	return fs, nil
}

// flushSuper writes the superblock back.
func (fs *FFS) flushSuper() error {
	b, err := fs.cache.bread(0)
	if err != nil {
		return err
	}
	fs.sb.encode(b.data)
	fs.cache.bdwrite(b)
	return nil
}

// --- bitmaps.

// bitmapAlloc finds and sets a clear bit in the bitmap starting at
// startBlk covering n items; returns the index.
func (fs *FFS) bitmapAlloc(startBlk, n uint32) (uint32, error) {
	blocks := (n + BlockSize*8 - 1) / (BlockSize * 8)
	for bi := uint32(0); bi < blocks; bi++ {
		b, err := fs.cache.bread(startBlk + bi)
		if err != nil {
			return 0, err
		}
		for byteI := 0; byteI < BlockSize; byteI++ {
			if b.data[byteI] == 0xff {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				idx := bi*BlockSize*8 + uint32(byteI*8+bit)
				if idx >= n {
					break
				}
				if b.data[byteI]&(1<<bit) == 0 {
					b.data[byteI] |= 1 << bit
					fs.cache.bdwrite(b)
					return idx, nil
				}
			}
		}
		fs.cache.brelse(b)
	}
	return 0, bsdglue.ENOSPC
}

// bitmapFree clears one bit; freeing a free item is a corruption panic
// (like the donor's "freeing free block").
func (fs *FFS) bitmapFree(startBlk, idx uint32) error {
	b, err := fs.cache.bread(startBlk + idx/(BlockSize*8))
	if err != nil {
		return err
	}
	off := idx % (BlockSize * 8)
	if b.data[off/8]&(1<<(off%8)) == 0 {
		fs.cache.brelse(b)
		fs.g.Printf("ffs: freeing free item %d", idx)
		return bsdglue.EIO
	}
	b.data[off/8] &^= 1 << (off % 8)
	fs.cache.bdwrite(b)
	return nil
}

// balloc allocates a zeroed data block.
func (fs *FFS) balloc() (uint32, error) {
	idx, err := fs.bitmapAlloc(fs.sb.blockBitmapStart, fs.sb.nblocks)
	if err != nil {
		return 0, err
	}
	fs.sb.freeBlocks--
	if err := fs.flushSuper(); err != nil {
		return 0, err
	}
	// Zero the new block.
	b, err := fs.cache.getblk(idx)
	if err != nil {
		return 0, err
	}
	clear(b.data)
	b.valid = true
	fs.cache.bdwrite(b)
	return idx, nil
}

// bfree releases a data block.
func (fs *FFS) bfree(blk uint32) error {
	if blk == 0 {
		return nil
	}
	if err := fs.bitmapFree(fs.sb.blockBitmapStart, blk); err != nil {
		return err
	}
	fs.sb.freeBlocks++
	return fs.flushSuper()
}

// --- inodes.

// ialloc allocates an inode and writes its initial image.
func (fs *FFS) ialloc(mode uint16) (uint32, error) {
	idx, err := fs.bitmapAlloc(fs.sb.inodeBitmapStart, fs.sb.ninodes)
	if err != nil {
		return 0, err
	}
	if idx == 0 {
		// Inode 0 is reserved as "no inode"; take the next.
		idx2, err := fs.bitmapAlloc(fs.sb.inodeBitmapStart, fs.sb.ninodes)
		if err != nil {
			return 0, err
		}
		idx = idx2
	}
	fs.sb.freeInodes--
	if err := fs.flushSuper(); err != nil {
		return 0, err
	}
	di := dinode{mode: mode, nlink: 1, mtime: fs.g.Ticks()}
	if err := fs.iput(idx, &di); err != nil {
		return 0, err
	}
	return idx, nil
}

// ifree releases an inode number.
func (fs *FFS) ifree(ino uint32) error {
	if err := fs.bitmapFree(fs.sb.inodeBitmapStart, ino); err != nil {
		return err
	}
	fs.sb.freeInodes++
	return fs.flushSuper()
}

// iget reads an inode.
func (fs *FFS) iget(ino uint32) (di dinode, err error) {
	if ino == 0 || ino >= fs.sb.ninodes {
		return di, bsdglue.EINVAL
	}
	blk := fs.sb.inodeTableStart + ino/(BlockSize/InodeSize)
	b, err := fs.cache.bread(blk)
	if err != nil {
		return di, err
	}
	off := (ino % (BlockSize / InodeSize)) * InodeSize
	di.decode(b.data[off : off+InodeSize])
	fs.cache.brelse(b)
	return di, nil
}

// iput writes an inode back.
func (fs *FFS) iput(ino uint32, di *dinode) error {
	blk := fs.sb.inodeTableStart + ino/(BlockSize/InodeSize)
	b, err := fs.cache.bread(blk)
	if err != nil {
		return err
	}
	off := (ino % (BlockSize / InodeSize)) * InodeSize
	di.encode(b.data[off : off+InodeSize])
	fs.cache.bdwrite(b)
	return nil
}

// --- block mapping.

// bmap resolves logical file block lbn to a device block, allocating as
// requested (the classic FFS direct/indirect/double walk).
func (fs *FFS) bmap(di *dinode, lbn uint32, alloc bool) (uint32, error) {
	if lbn < NDirect {
		if di.direct[lbn] == 0 && alloc {
			blk, err := fs.balloc()
			if err != nil {
				return 0, err
			}
			di.direct[lbn] = blk
		}
		return di.direct[lbn], nil
	}
	lbn -= NDirect
	if lbn < ptrsPerBl {
		return fs.indWalk(&di.indirect, lbn, alloc)
	}
	lbn -= ptrsPerBl
	if lbn < ptrsPerBl*ptrsPerBl {
		// Double indirect: first level.
		if di.dindirect == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := fs.balloc()
			if err != nil {
				return 0, err
			}
			di.dindirect = blk
		}
		b, err := fs.cache.bread(di.dindirect)
		if err != nil {
			return 0, err
		}
		slot := lbn / ptrsPerBl
		l1 := binary.LittleEndian.Uint32(b.data[slot*4:])
		if l1 == 0 {
			if !alloc {
				fs.cache.brelse(b)
				return 0, nil
			}
			blk, err := fs.balloc()
			if err != nil {
				fs.cache.brelse(b)
				return 0, err
			}
			l1 = blk
			binary.LittleEndian.PutUint32(b.data[slot*4:], l1)
			fs.cache.bdwrite(b)
		} else {
			fs.cache.brelse(b)
		}
		return fs.indWalk(&l1, lbn%ptrsPerBl, alloc)
	}
	return 0, bsdglue.ENOSPC // beyond maximum file size
}

// indWalk resolves one level of indirection rooted at *root.
func (fs *FFS) indWalk(root *uint32, slot uint32, alloc bool) (uint32, error) {
	if *root == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := fs.balloc()
		if err != nil {
			return 0, err
		}
		*root = blk
	}
	b, err := fs.cache.bread(*root)
	if err != nil {
		return 0, err
	}
	ptr := binary.LittleEndian.Uint32(b.data[slot*4:])
	if ptr == 0 && alloc {
		blk, err := fs.balloc()
		if err != nil {
			fs.cache.brelse(b)
			return 0, err
		}
		ptr = blk
		binary.LittleEndian.PutUint32(b.data[slot*4:], ptr)
		fs.cache.bdwrite(b)
		return ptr, nil
	}
	fs.cache.brelse(b)
	return ptr, nil
}

// breadFile returns the locked buffer of blk, the device block of the
// file's logical block lbn, in a caller's range of want blocks from lbn
// on.  Only on a miss does it walk bmap ahead: the request then also
// fills the range's next blocks while they follow blk on the device; a
// hole, a jump (the indirect block FFS lays out after lbn 7) or an
// unreadable mapping ends the run.
func (fs *FFS) breadFile(di *dinode, lbn, blk, want uint32) (*buf, error) {
	n := uint32(1)
	if b := fs.cache.hash[blk]; b == nil || !b.valid {
		for n < min(want, maxPinBlocks) {
			next, err := fs.bmap(di, lbn+n, false)
			if err != nil || next != blk+n {
				break
			}
			n++
		}
	}
	return fs.cache.breadRun(blk, n)
}

// readi reads from an inode's data.
func (fs *FFS) readi(di *dinode, dst []byte, off uint64) (uint, error) {
	if off >= di.size {
		return 0, nil
	}
	if rem := di.size - off; uint64(len(dst)) > rem {
		dst = dst[:rem]
	}
	done := uint(0)
	for len(dst) > 0 {
		lbn := uint32(off / BlockSize)
		boff := int(off % BlockSize)
		n := BlockSize - boff
		if n > len(dst) {
			n = len(dst)
		}
		blk, err := fs.bmap(di, lbn, false)
		if err != nil {
			return done, err
		}
		if blk == 0 { // hole
			clear(dst[:n])
		} else {
			b, err := fs.breadFile(di, lbn, blk, uint32((boff+len(dst)+BlockSize-1)/BlockSize))
			if err != nil {
				return done, err
			}
			copy(dst[:n], b.data[boff:boff+n])
			fs.cache.brelse(b)
		}
		dst = dst[n:]
		off += uint64(n)
		done += uint(n)
	}
	return done, nil
}

// writei writes to an inode's data, growing it; the caller persists the
// inode afterwards.
func (fs *FFS) writei(di *dinode, src []byte, off uint64) (uint, error) {
	done := uint(0)
	for len(src) > 0 {
		lbn := uint32(off / BlockSize)
		boff := int(off % BlockSize)
		n := BlockSize - boff
		if n > len(src) {
			n = len(src)
		}
		blk, err := fs.bmap(di, lbn, true)
		if err != nil {
			return done, err
		}
		b, err := fs.cache.bread(blk)
		if err != nil {
			return done, err
		}
		copy(b.data[boff:boff+n], src[:n])
		fs.cache.bdwrite(b)
		src = src[n:]
		off += uint64(n)
		done += uint(n)
		if off > di.size {
			di.size = off
		}
	}
	di.mtime = fs.g.Ticks()
	return done, nil
}

// itrunc frees an inode's data beyond size (only full truncation to a
// smaller size; growth is a size update).
func (fs *FFS) itrunc(di *dinode, size uint64) error {
	if size >= di.size {
		di.size = size
		return nil
	}
	firstFree := uint32((size + BlockSize - 1) / BlockSize)
	lastUsed := uint32((di.size + BlockSize - 1) / BlockSize)
	for lbn := firstFree; lbn < lastUsed; lbn++ {
		blk, err := fs.bmap(di, lbn, false)
		if err != nil {
			return err
		}
		if blk != 0 {
			if err := fs.bfree(blk); err != nil {
				return err
			}
			fs.clearMapping(di, lbn)
		}
	}
	// POSIX: the tail of the final partial block must read as zero if
	// the file later grows past it.
	if size%BlockSize != 0 {
		if blk, err := fs.bmap(di, uint32(size/BlockSize), false); err == nil && blk != 0 {
			b, err := fs.cache.bread(blk)
			if err == nil {
				clear(b.data[size%BlockSize:])
				fs.cache.bdwrite(b)
			}
		}
	}
	// Free now-empty indirect blocks when the file shrank out of them.
	if firstFree <= NDirect && di.indirect != 0 && size <= NDirect*BlockSize {
		if err := fs.bfree(di.indirect); err != nil {
			return err
		}
		di.indirect = 0
	}
	if di.dindirect != 0 && size <= (NDirect+ptrsPerBl)*BlockSize {
		// Free level-1 blocks then the root.
		b, err := fs.cache.bread(di.dindirect)
		if err != nil {
			return err
		}
		var l1s []uint32
		for i := uint32(0); i < ptrsPerBl; i++ {
			if p := binary.LittleEndian.Uint32(b.data[i*4:]); p != 0 {
				l1s = append(l1s, p)
			}
		}
		fs.cache.brelse(b)
		for _, p := range l1s {
			if err := fs.bfree(p); err != nil {
				return err
			}
		}
		if err := fs.bfree(di.dindirect); err != nil {
			return err
		}
		di.dindirect = 0
	}
	di.size = size
	di.mtime = fs.g.Ticks()
	return nil
}

// clearMapping zeroes the block pointer for lbn (after bfree).
func (fs *FFS) clearMapping(di *dinode, lbn uint32) {
	if lbn < NDirect {
		di.direct[lbn] = 0
		return
	}
	lbn -= NDirect
	if lbn < ptrsPerBl && di.indirect != 0 {
		b, err := fs.cache.bread(di.indirect)
		if err != nil {
			return
		}
		binary.LittleEndian.PutUint32(b.data[lbn*4:], 0)
		fs.cache.bdwrite(b)
		return
	}
	lbn -= ptrsPerBl
	if di.dindirect == 0 {
		return
	}
	b, err := fs.cache.bread(di.dindirect)
	if err != nil {
		return
	}
	l1 := binary.LittleEndian.Uint32(b.data[(lbn/ptrsPerBl)*4:])
	fs.cache.brelse(b)
	if l1 == 0 {
		return
	}
	b, err = fs.cache.bread(l1)
	if err != nil {
		return
	}
	binary.LittleEndian.PutUint32(b.data[(lbn%ptrsPerBl)*4:], 0)
	fs.cache.bdwrite(b)
}

// ifreeData releases all of an inode's data and the inode itself.
func (fs *FFS) ifreeData(ino uint32, di *dinode) error {
	if err := fs.itrunc(di, 0); err != nil {
		return err
	}
	if err := fs.iput(ino, di); err != nil {
		return err
	}
	return fs.ifree(ino)
}
