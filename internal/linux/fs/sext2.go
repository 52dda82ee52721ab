// Package linuxfs is the kit's Linux-derived file system — the row the
// paper lists as in progress ("We are currently incorporating Linux
// file systems as well, to support many diverse file system formats",
// §3.8), built here as the ext2-flavoured "sext2".
//
// The on-disk format follows ext2's conventions where they matter:
// the superblock lives in block 1 with magic 0xEF53, the root directory
// is inode 2, inodes are 128 bytes with twelve direct block pointers
// plus single and double indirection, and directories are chains of
// variable-length records (inode, rec_len, name_len, type, name) whose
// deletion folds a record into its predecessor's rec_len — the real
// ext2 directory discipline, quite different from the NetBSD-derived
// component's fixed slots.  Divergences from full ext2 (one block
// group, no triple indirection) are simplifications of scale, not of
// mechanism.
//
// Like the other donor-family components it exports the kit's
// FileSystem/Dir/File interfaces over any BlkIO, so a client can mount
// an sext2 and an FFS on two partitions of the same disk and the code
// above cannot tell them apart — the separability demonstration the
// paper was heading toward.
package linuxfs

import (
	"encoding/binary"

	"oskit/internal/linux/legacy"
)

// Geometry and magic numbers (ext2 conventions).
const (
	BlockSize = 1024
	Magic     = 0xEF53

	InodeSize = 128
	NDirect   = 12
	ptrsPerBl = BlockSize / 4

	// RootIno is the root directory inode (ext2 convention; inode 1 is
	// reserved for bad blocks, 0 is "no inode").
	RootIno = 2

	superBlock = 1 // block holding the superblock, per ext2
)

// File type bytes stored in directory entries (ext2 values).
const (
	ftUnknown = 0
	ftRegular = 1
	ftDir     = 2
)

// Inode mode type bits (Linux S_IFMT family, POSIX values).
const (
	sIFMT  = 0o170000
	sIFDIR = 0o040000
)

type superblock struct {
	magic       uint32
	nblocks     uint32
	ninodes     uint32
	blockBitmap uint32
	inodeBitmap uint32
	inodeTable  uint32
	dataStart   uint32
	freeBlocks  uint32
	freeInodes  uint32
}

func (sb *superblock) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.magic)
	le.PutUint32(b[4:], sb.nblocks)
	le.PutUint32(b[8:], sb.ninodes)
	le.PutUint32(b[12:], sb.blockBitmap)
	le.PutUint32(b[16:], sb.inodeBitmap)
	le.PutUint32(b[20:], sb.inodeTable)
	le.PutUint32(b[24:], sb.dataStart)
	le.PutUint32(b[28:], sb.freeBlocks)
	le.PutUint32(b[32:], sb.freeInodes)
}

func (sb *superblock) decode(b []byte) {
	le := binary.LittleEndian
	sb.magic = le.Uint32(b[0:])
	sb.nblocks = le.Uint32(b[4:])
	sb.ninodes = le.Uint32(b[8:])
	sb.blockBitmap = le.Uint32(b[12:])
	sb.inodeBitmap = le.Uint32(b[16:])
	sb.inodeTable = le.Uint32(b[20:])
	sb.dataStart = le.Uint32(b[24:])
	sb.freeBlocks = le.Uint32(b[28:])
	sb.freeInodes = le.Uint32(b[32:])
}

// inode is the in-memory image of an on-disk inode (pruned ext2).
type inode struct {
	mode  uint16
	uid   uint16
	size  uint32
	mtime uint32
	gid   uint16
	links uint16
	block [NDirect + 2]uint32 // 12 direct, single, double
}

func (di *inode) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], di.mode)
	le.PutUint16(b[2:], di.uid)
	le.PutUint32(b[4:], di.size)
	le.PutUint32(b[8:], di.mtime)
	le.PutUint16(b[12:], di.gid)
	le.PutUint16(b[14:], di.links)
	for i := range di.block {
		le.PutUint32(b[40+i*4:], di.block[i])
	}
}

func (di *inode) decode(b []byte) {
	le := binary.LittleEndian
	di.mode = le.Uint16(b[0:])
	di.uid = le.Uint16(b[2:])
	di.size = le.Uint32(b[4:])
	di.mtime = le.Uint32(b[8:])
	di.gid = le.Uint16(b[12:])
	di.links = le.Uint16(b[14:])
	for i := range di.block {
		di.block[i] = le.Uint32(b[40+i*4:])
	}
}

func (di *inode) isDir() bool { return di.mode&sIFMT == sIFDIR }

// blockDevice is the device under a mount: the methods this component
// calls on it, which the glue's com.BlkIO provides.
type blockDevice interface {
	Read(buf []byte, offset uint64) (uint, error)
	Write(buf []byte, offset uint64) (uint, error)
}

// FS is one mounted sext2.
type FS struct {
	dev blockDevice
	sb  superblock

	// A tiny write-through block cache keeps the donor code simple;
	// the Linux donor family leaned on the buffer cache, but sext2's
	// correctness story is the disk format, not cache policy.
	cblock uint32
	cbuf   [BlockSize]byte
	cvalid bool

	ticks     func() uint64
	unmounted bool
}

// mount reads and checks the superblock.
func mount(dev blockDevice, ticks func() uint64) (*FS, error) {
	fs := &FS{dev: dev, ticks: ticks}
	var b [BlockSize]byte
	if err := fs.readRaw(superBlock, b[:]); err != nil {
		return nil, err
	}
	fs.sb.decode(b[:])
	if fs.sb.magic != Magic {
		return nil, legacy.EINVAL
	}
	return fs, nil
}

func (fs *FS) now() uint32 {
	if fs.ticks == nil {
		return 0
	}
	return uint32(fs.ticks())
}

func (fs *FS) readRaw(blk uint32, dst []byte) error {
	n, err := fs.dev.Read(dst, uint64(blk)*BlockSize)
	if err != nil || n != BlockSize {
		return legacy.EIO
	}
	return nil
}

func (fs *FS) writeRaw(blk uint32, src []byte) error {
	n, err := fs.dev.Write(src, uint64(blk)*BlockSize)
	if err != nil || n != BlockSize {
		return legacy.EIO
	}
	return nil
}

// readBlock fills the one-block cache.
func (fs *FS) readBlock(blk uint32) ([]byte, error) {
	if fs.cvalid && fs.cblock == blk {
		return fs.cbuf[:], nil
	}
	if err := fs.readRaw(blk, fs.cbuf[:]); err != nil {
		fs.cvalid = false
		return nil, err
	}
	fs.cblock = blk
	fs.cvalid = true
	return fs.cbuf[:], nil
}

// writeBlock writes through and keeps the cache coherent.
func (fs *FS) writeBlock(blk uint32, data []byte) error {
	if err := fs.writeRaw(blk, data); err != nil {
		return err
	}
	if fs.cvalid && fs.cblock == blk && &fs.cbuf[0] != &data[0] {
		copy(fs.cbuf[:], data)
	}
	return nil
}

func (fs *FS) flushSuper() error {
	var b [BlockSize]byte
	if err := fs.readRaw(superBlock, b[:]); err != nil {
		return err
	}
	fs.sb.encode(b[:])
	return fs.writeBlock(superBlock, b[:])
}

// --- bitmaps (single block group: one block each).

func (fs *FS) bitmapAlloc(bitmapBlk, n uint32) (uint32, error) {
	b, err := fs.readBlock(bitmapBlk)
	if err != nil {
		return 0, err
	}
	for i := uint32(0); i < n && i < BlockSize*8; i++ {
		if b[i/8]&(1<<(i%8)) == 0 {
			tmp := make([]byte, BlockSize)
			copy(tmp, b)
			tmp[i/8] |= 1 << (i % 8)
			if err := fs.writeBlock(bitmapBlk, tmp); err != nil {
				return 0, err
			}
			return i, nil
		}
	}
	return 0, legacy.ENOSPC
}

func (fs *FS) bitmapFree(bitmapBlk, idx uint32) error {
	b, err := fs.readBlock(bitmapBlk)
	if err != nil {
		return err
	}
	if b[idx/8]&(1<<(idx%8)) == 0 {
		return legacy.EIO // freeing free item: corruption
	}
	tmp := make([]byte, BlockSize)
	copy(tmp, b)
	tmp[idx/8] &^= 1 << (idx % 8)
	return fs.writeBlock(bitmapBlk, tmp)
}

func (fs *FS) balloc() (uint32, error) {
	idx, err := fs.bitmapAlloc(fs.sb.blockBitmap, fs.sb.nblocks)
	if err != nil {
		return 0, err
	}
	fs.sb.freeBlocks--
	if err := fs.flushSuper(); err != nil {
		return 0, err
	}
	zero := make([]byte, BlockSize)
	if err := fs.writeBlock(idx, zero); err != nil {
		return 0, err
	}
	return idx, nil
}

func (fs *FS) bfree(blk uint32) error {
	if blk == 0 {
		return nil
	}
	if err := fs.bitmapFree(fs.sb.blockBitmap, blk); err != nil {
		return err
	}
	fs.sb.freeBlocks++
	return fs.flushSuper()
}

// --- inodes.

func (fs *FS) ialloc(mode uint16) (uint32, error) {
	idx, err := fs.bitmapAlloc(fs.sb.inodeBitmap, fs.sb.ninodes)
	if err != nil {
		return 0, err
	}
	fs.sb.freeInodes--
	if err := fs.flushSuper(); err != nil {
		return 0, err
	}
	di := inode{mode: mode, links: 1, mtime: fs.now()}
	if err := fs.iput(idx, &di); err != nil {
		return 0, err
	}
	return idx, nil
}

func (fs *FS) ifree(ino uint32) error {
	if err := fs.bitmapFree(fs.sb.inodeBitmap, ino); err != nil {
		return err
	}
	fs.sb.freeInodes++
	return fs.flushSuper()
}

func (fs *FS) iget(ino uint32) (*inode, error) {
	if ino == 0 || ino >= fs.sb.ninodes {
		return nil, legacy.EINVAL
	}
	blk := fs.sb.inodeTable + ino/(BlockSize/InodeSize)
	b, err := fs.readBlock(blk)
	if err != nil {
		return nil, err
	}
	var di inode
	off := (ino % (BlockSize / InodeSize)) * InodeSize
	di.decode(b[off : off+InodeSize])
	return &di, nil
}

func (fs *FS) iput(ino uint32, di *inode) error {
	blk := fs.sb.inodeTable + ino/(BlockSize/InodeSize)
	b, err := fs.readBlock(blk)
	if err != nil {
		return err
	}
	tmp := make([]byte, BlockSize)
	copy(tmp, b)
	off := (ino % (BlockSize / InodeSize)) * InodeSize
	di.encode(tmp[off : off+InodeSize])
	return fs.writeBlock(blk, tmp)
}

// --- block mapping: 12 direct, single indirect, double indirect.

func (fs *FS) bmap(di *inode, lbn uint32, alloc bool) (uint32, error) {
	if lbn < NDirect {
		if di.block[lbn] == 0 && alloc {
			blk, err := fs.balloc()
			if err != nil {
				return 0, err
			}
			di.block[lbn] = blk
		}
		return di.block[lbn], nil
	}
	lbn -= NDirect
	if lbn < ptrsPerBl {
		return fs.indWalk(&di.block[NDirect], lbn, alloc)
	}
	lbn -= ptrsPerBl
	if lbn < ptrsPerBl*ptrsPerBl {
		root := &di.block[NDirect+1]
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
		l1, err := fs.indSlot(*root, lbn/ptrsPerBl, alloc)
		if err != nil || l1 == 0 {
			return l1, err
		}
		return fs.indSlotValue(l1, lbn%ptrsPerBl, alloc)
	}
	return 0, legacy.ENOSPC
}

func (fs *FS) indWalk(root *uint32, slot uint32, alloc bool) (uint32, error) {
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
	return fs.indSlotValue(*root, slot, alloc)
}

// indSlot reads (allocating when asked) the pointer at slot of an
// indirect block, allocating a fresh *indirect* block there.
func (fs *FS) indSlot(blk, slot uint32, alloc bool) (uint32, error) {
	b, err := fs.readBlock(blk)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b[slot*4:])
	if v == 0 && alloc {
		nb, err := fs.balloc()
		if err != nil {
			return 0, err
		}
		tmp := make([]byte, BlockSize)
		if _, err := fs.readBlock(blk); err != nil {
			return 0, err
		}
		copy(tmp, fs.cbuf[:])
		binary.LittleEndian.PutUint32(tmp[slot*4:], nb)
		if err := fs.writeBlock(blk, tmp); err != nil {
			return 0, err
		}
		return nb, nil
	}
	return v, nil
}

// indSlotValue is indSlot for *data* blocks.
func (fs *FS) indSlotValue(blk, slot uint32, alloc bool) (uint32, error) {
	return fs.indSlot(blk, slot, alloc)
}

// --- file data.

func (fs *FS) readi(di *inode, dst []byte, off uint64) (uint, error) {
	if off >= uint64(di.size) {
		return 0, nil
	}
	if rem := uint64(di.size) - off; uint64(len(dst)) > rem {
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
		if blk == 0 {
			clear(dst[:n])
		} else {
			b, err := fs.readBlock(blk)
			if err != nil {
				return done, err
			}
			copy(dst[:n], b[boff:boff+n])
		}
		dst = dst[n:]
		off += uint64(n)
		done += uint(n)
	}
	return done, nil
}

func (fs *FS) writei(di *inode, src []byte, off uint64) (uint, error) {
	if off+uint64(len(src)) > 1<<31 {
		return 0, legacy.ENOSPC // size field is 32-bit
	}
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
		b, err := fs.readBlock(blk)
		if err != nil {
			return done, err
		}
		tmp := make([]byte, BlockSize)
		copy(tmp, b)
		copy(tmp[boff:boff+n], src[:n])
		if err := fs.writeBlock(blk, tmp); err != nil {
			return done, err
		}
		src = src[n:]
		off += uint64(n)
		done += uint(n)
		if off > uint64(di.size) {
			di.size = uint32(off)
		}
	}
	di.mtime = fs.now()
	return done, nil
}

// itrunc shrinks (or just relabels) the inode to size.
func (fs *FS) itrunc(di *inode, size uint64) error {
	if size >= uint64(di.size) {
		di.size = uint32(size)
		return nil
	}
	firstFree := uint32((size + BlockSize - 1) / BlockSize)
	lastUsed := (di.size + BlockSize - 1) / BlockSize
	for lbn := firstFree; lbn < lastUsed; lbn++ {
		blk, err := fs.bmap(di, lbn, false)
		if err != nil {
			return err
		}
		if blk != 0 {
			if err := fs.bfree(blk); err != nil {
				return err
			}
			if err := fs.clearMapping(di, lbn); err != nil {
				return err
			}
		}
	}
	// POSIX: bytes between the new size and the old contents must read
	// as zero if the file grows again — scrub the tail of the final
	// partial block.
	if size%BlockSize != 0 {
		if blk, err := fs.bmap(di, uint32(size/BlockSize), false); err == nil && blk != 0 {
			b, err := fs.readBlock(blk)
			if err == nil {
				tmp := make([]byte, BlockSize)
				copy(tmp, b)
				clear(tmp[size%BlockSize:])
				if err := fs.writeBlock(blk, tmp); err != nil {
					return err
				}
			}
		}
	}
	if size <= NDirect*BlockSize && di.block[NDirect] != 0 {
		if err := fs.bfree(di.block[NDirect]); err != nil {
			return err
		}
		di.block[NDirect] = 0
	}
	if size <= (NDirect+ptrsPerBl)*BlockSize && di.block[NDirect+1] != 0 {
		// Free surviving level-1 indirect blocks, then the root.
		b, err := fs.readBlock(di.block[NDirect+1])
		if err != nil {
			return err
		}
		var l1s []uint32
		for i := uint32(0); i < ptrsPerBl; i++ {
			if p := binary.LittleEndian.Uint32(b[i*4:]); p != 0 {
				l1s = append(l1s, p)
			}
		}
		for _, p := range l1s {
			if err := fs.bfree(p); err != nil {
				return err
			}
		}
		if err := fs.bfree(di.block[NDirect+1]); err != nil {
			return err
		}
		di.block[NDirect+1] = 0
	}
	di.size = uint32(size)
	di.mtime = fs.now()
	return nil
}

func (fs *FS) clearMapping(di *inode, lbn uint32) error {
	if lbn < NDirect {
		di.block[lbn] = 0
		return nil
	}
	lbn -= NDirect
	clearSlot := func(blk, slot uint32) error {
		if blk == 0 {
			return nil
		}
		b, err := fs.readBlock(blk)
		if err != nil {
			return err
		}
		tmp := make([]byte, BlockSize)
		copy(tmp, b)
		binary.LittleEndian.PutUint32(tmp[slot*4:], 0)
		return fs.writeBlock(blk, tmp)
	}
	if lbn < ptrsPerBl {
		return clearSlot(di.block[NDirect], lbn)
	}
	lbn -= ptrsPerBl
	root := di.block[NDirect+1]
	if root == 0 {
		return nil
	}
	l1, err := fs.indSlot(root, lbn/ptrsPerBl, false)
	if err != nil || l1 == 0 {
		return err
	}
	return clearSlot(l1, lbn%ptrsPerBl)
}

func (fs *FS) ifreeData(ino uint32, di *inode) error {
	if err := fs.itrunc(di, 0); err != nil {
		return err
	}
	if err := fs.iput(ino, di); err != nil {
		return err
	}
	return fs.ifree(ino)
}
