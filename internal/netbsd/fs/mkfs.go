package netbsdfs

import (
	"fmt"

	bsdglue "oskit/internal/freebsd/glue"
)

// mkfs formats dev with an empty file system (newfs).  The given inode
// count is rounded up to fill whole table blocks.
func mkfs(dev blkdev, ninodes uint32) error {
	size, err := dev.Size()
	if err != nil {
		return bsdglue.EIO
	}
	nblocks := uint32(size / BlockSize)
	if nblocks < 16 {
		return bsdglue.ENOSPC
	}
	if ninodes == 0 {
		ninodes = nblocks / 4
	}
	inosPerBlk := uint32(BlockSize / InodeSize)
	ninodes = (ninodes + inosPerBlk - 1) / inosPerBlk * inosPerBlk

	inodeBitmapBlks := (ninodes + BlockSize*8 - 1) / (BlockSize * 8)
	blockBitmapBlks := (nblocks + BlockSize*8 - 1) / (BlockSize * 8)
	inodeTableBlks := ninodes / inosPerBlk

	sb := superblock{
		magic:            Magic,
		nblocks:          nblocks,
		ninodes:          ninodes,
		inodeBitmapStart: 1,
		blockBitmapStart: 1 + inodeBitmapBlks,
		inodeTableStart:  1 + inodeBitmapBlks + blockBitmapBlks,
	}
	sb.dataStart = sb.inodeTableStart + inodeTableBlks
	if sb.dataStart >= nblocks {
		return bsdglue.ENOSPC
	}
	sb.freeBlocks = nblocks - sb.dataStart
	sb.freeInodes = ninodes - 2 // inode 0 reserved + root

	writeBlock := func(blk uint32, data []byte) error {
		n, err := dev.Write(data, uint64(blk)*BlockSize)
		if err != nil || n != BlockSize {
			return bsdglue.EIO
		}
		return nil
	}

	// Superblock.
	blk := make([]byte, BlockSize)
	sb.encode(blk)
	if err := writeBlock(0, blk); err != nil {
		return err
	}

	// Inode bitmap: inode 0 (reserved) and RootIno allocated.
	for i := uint32(0); i < inodeBitmapBlks; i++ {
		clear(blk)
		if i == 0 {
			blk[0] = 0b11 // inodes 0 and 1
		}
		if err := writeBlock(sb.inodeBitmapStart+i, blk); err != nil {
			return err
		}
	}

	// Block bitmap: metadata blocks allocated, plus the tail bits past
	// nblocks so the allocator never wanders off the device.
	for i := uint32(0); i < blockBitmapBlks; i++ {
		clear(blk)
		base := i * BlockSize * 8
		for bit := uint32(0); bit < BlockSize*8; bit++ {
			abs := base + bit
			if abs < sb.dataStart || abs >= nblocks {
				blk[bit/8] |= 1 << (bit % 8)
			}
		}
		if err := writeBlock(sb.blockBitmapStart+i, blk); err != nil {
			return err
		}
	}

	// Inode table: zeroed, with the root directory in place.
	root := dinode{mode: ifdir | 0o755, nlink: 2, mtime: 0}
	for i := uint32(0); i < inodeTableBlks; i++ {
		clear(blk)
		if i == RootIno/inosPerBlk {
			off := (RootIno % inosPerBlk) * InodeSize
			root.encode(blk[off : off+InodeSize])
		}
		if err := writeBlock(sb.inodeTableStart+i, blk); err != nil {
			return err
		}
	}
	return nil
}

// Fsck checks the file system's structural consistency: every reachable
// block marked allocated, no block reachable twice, bitmap counts
// matching the superblock, directory entries pointing at allocated
// inodes.  It reads through a private cache and does not modify the
// device.  The returned slice is empty for a clean file system.
func (fs *FFS) Fsck() (errs []error) {
	defer fs.enter("fsck").leave(new(error))
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("fsck: "+format, args...))
	}

	blockSeen := make(map[uint32]uint32) // block -> owning inode
	inodeSeen := make(map[uint32]bool)

	// Walk from the root.
	var walk func(ino uint32)
	walk = func(ino uint32) {
		if inodeSeen[ino] {
			return
		}
		inodeSeen[ino] = true
		di, err := fs.iget(ino)
		if err != nil {
			report("inode %d unreadable", ino)
			return
		}
		if !fs.inodeAllocated(ino) {
			report("inode %d in use but free in bitmap", ino)
		}
		// Claim data blocks.
		nblks := uint32((di.size + BlockSize - 1) / BlockSize)
		for lbn := uint32(0); lbn < nblks; lbn++ {
			blk, err := fs.bmap(&di, lbn, false)
			if err != nil || blk == 0 {
				continue
			}
			if owner, dup := blockSeen[blk]; dup {
				report("block %d claimed by inodes %d and %d", blk, owner, ino)
			}
			blockSeen[blk] = ino
			if !fs.blockAllocated(blk) {
				report("block %d in use but free in bitmap", blk)
			}
		}
		for _, meta := range []uint32{di.indirect, di.dindirect} {
			if meta != 0 {
				blockSeen[meta] = ino
				if !fs.blockAllocated(meta) {
					report("metadata block %d free in bitmap", meta)
				}
			}
		}
		if isDir(&di) {
			ents, err := fs.dirList(&di)
			if err != nil {
				report("directory %d unreadable", ino)
				return
			}
			for _, e := range ents {
				if e.ino >= fs.sb.ninodes {
					report("directory %d entry %q points at bad inode %d", ino, e.name, e.ino)
					continue
				}
				walk(e.ino)
			}
		}
	}
	walk(RootIno)
	return errs
}

// inodeAllocated reads the inode bitmap bit.
func (fs *FFS) inodeAllocated(ino uint32) bool {
	return fs.bitmapGet(fs.sb.inodeBitmapStart, ino)
}

// blockAllocated reads the block bitmap bit.
func (fs *FFS) blockAllocated(blk uint32) bool {
	return fs.bitmapGet(fs.sb.blockBitmapStart, blk)
}

func (fs *FFS) bitmapGet(start, idx uint32) bool {
	b, err := fs.cache.bread(start + idx/(BlockSize*8))
	if err != nil {
		return false
	}
	off := idx % (BlockSize * 8)
	set := b.data[off/8]&(1<<(off%8)) != 0
	fs.cache.brelse(b)
	return set
}
