package linuxfs

import (
	"oskit/internal/com"
	"oskit/internal/linux/legacy"
)

// The COM export: identical interface shape to the NetBSD-derived
// component — which is the whole point.  (sext2 runs single-threaded
// per the simplest documented execution model; a multithreaded client
// wraps it in a component lock, §4.7.4.)  Every method that reaches
// donor code defers comError, so a donor errno leaves as its COM error.

// comErrors maps each donor errno to the COM error it leaves as.
var comErrors = [...]error{
	legacy.ENOENT: com.ErrNoEnt, legacy.EIO: com.ErrIO, legacy.EINVAL: com.ErrInval,
	legacy.ENOSPC: com.ErrNoSpace, legacy.ENAMETOOLONG: com.ErrNameLong,
}

// comError translates the donor errno in *err, if any.
func comError(err *error) {
	if e, ok := (*err).(legacy.Errno); ok {
		*err = comErrors[e]
	}
}

// Mount reads and checks the superblock of the sext2 on dev, holding a
// reference on dev until Unmount.
func Mount(dev com.BlkIO, ticks func() uint64) (fs *FS, err error) {
	defer comError(&err)
	dev.AddRef()
	if fs, err = mount(dev, ticks); err != nil {
		dev.Release()
	}
	return fs, err
}

// Mkfs formats a BlkIO with an empty sext2.
func Mkfs(dev com.BlkIO, ninodes uint32) error {
	size, err := dev.Size()
	if err != nil {
		return err
	}
	nblocks := uint32(size / BlockSize)
	if nblocks < 16 {
		return com.ErrNoSpace
	}
	if nblocks > BlockSize*8 {
		nblocks = BlockSize * 8 // one block group (one bitmap block)
	}
	inosPerBlk := uint32(BlockSize / InodeSize)
	if ninodes == 0 {
		ninodes = nblocks / 4
	}
	if ninodes > BlockSize*8 {
		ninodes = BlockSize * 8
	}
	ninodes = (ninodes + inosPerBlk - 1) / inosPerBlk * inosPerBlk

	sb := superblock{
		magic:       Magic,
		nblocks:     nblocks,
		ninodes:     ninodes,
		blockBitmap: 2,
		inodeBitmap: 3,
		inodeTable:  4,
	}
	sb.dataStart = sb.inodeTable + ninodes/inosPerBlk
	if sb.dataStart >= nblocks {
		return com.ErrNoSpace
	}
	sb.freeBlocks = nblocks - sb.dataStart
	sb.freeInodes = ninodes - 3 // 0 reserved, 1 bad-blocks, 2 root

	blk := make([]byte, BlockSize)
	write := func(n uint32, data []byte) error {
		w, err := dev.Write(data, uint64(n)*BlockSize)
		if err != nil || w != BlockSize {
			return com.ErrIO
		}
		return nil
	}

	// Superblock (block 1; block 0 is the ext2 boot block, untouched).
	sb.encode(blk)
	if err := write(superBlock, blk); err != nil {
		return err
	}
	// Block bitmap: metadata + tail marked used.
	clear(blk)
	for b := uint32(0); b < BlockSize*8; b++ {
		if b < sb.dataStart || b >= nblocks {
			blk[b/8] |= 1 << (b % 8)
		}
	}
	if err := write(sb.blockBitmap, blk); err != nil {
		return err
	}
	// Inode bitmap: 0, 1 (bad blocks), 2 (root) used.
	clear(blk)
	blk[0] = 0b111
	if err := write(sb.inodeBitmap, blk); err != nil {
		return err
	}
	// Inode table with the root directory.
	root := inode{mode: sIFDIR | 0o755, links: 2}
	for i := uint32(0); i < ninodes/inosPerBlk; i++ {
		clear(blk)
		if i == RootIno/inosPerBlk {
			off := (RootIno % inosPerBlk) * InodeSize
			root.encode(blk[off : off+InodeSize])
		}
		if err := write(sb.inodeTable+i, blk); err != nil {
			return err
		}
	}
	return nil
}

// vnode is one COM node.
type vnode struct {
	com.RefCount
	fs  *FS
	ino uint32
}

func (fs *FS) newVnode(ino uint32) *vnode {
	v := &vnode{fs: fs, ino: ino}
	v.Init()
	return v
}

// --- com.FileSystem on *FS.

// QueryInterface implements com.IUnknown.
func (fs *FS) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.FileSystemIID:
		return fs, nil
	}
	return nil, com.ErrNoInterface
}

// AddRef implements com.IUnknown (the mount is client-owned).
func (fs *FS) AddRef() uint32 { return 1 }

// Release implements com.IUnknown.
func (fs *FS) Release() uint32 { return 1 }

// GetRoot implements com.FileSystem.
func (fs *FS) GetRoot() (com.Dir, error) {
	if fs.unmounted {
		return nil, com.ErrBadF
	}
	return fs.newVnode(RootIno), nil
}

// StatFS implements com.FileSystem.
func (fs *FS) StatFS() (com.StatFS, error) {
	return com.StatFS{
		BlockSize:   BlockSize,
		TotalBlocks: uint64(fs.sb.nblocks),
		FreeBlocks:  uint64(fs.sb.freeBlocks),
		TotalFiles:  uint64(fs.sb.ninodes),
		FreeFiles:   uint64(fs.sb.freeInodes),
	}, nil
}

// Sync implements com.FileSystem (writes are write-through).
func (fs *FS) Sync() error { return nil }

// Unmount implements com.FileSystem.
func (fs *FS) Unmount() error {
	if fs.unmounted {
		return com.ErrBadF
	}
	fs.unmounted = true
	fs.dev.(com.BlkIO).Release()
	return nil
}

var _ com.FileSystem = (*FS)(nil)

// --- com.File / com.Dir on vnode.

// QueryInterface implements com.IUnknown.
func (v *vnode) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.FileIID:
		v.AddRef()
		return v, nil
	case com.DirIID:
		di, err := v.fs.iget(v.ino)
		if err == nil && di.isDir() {
			v.AddRef()
			return v, nil
		}
	}
	return nil, com.ErrNoInterface
}

// ReadAt implements com.File.
func (v *vnode) ReadAt(buf []byte, offset uint64) (n uint, err error) {
	defer comError(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return 0, err
	}
	if di.isDir() {
		return 0, com.ErrIsDir
	}
	return v.fs.readi(di, buf, offset)
}

// WriteAt implements com.File.
func (v *vnode) WriteAt(buf []byte, offset uint64) (n uint, err error) {
	defer comError(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return 0, err
	}
	if di.isDir() {
		return 0, com.ErrIsDir
	}
	n, werr := v.fs.writei(di, buf, offset)
	if err := v.fs.iput(v.ino, di); err != nil {
		return n, err
	}
	return n, werr
}

// GetStat implements com.File.
func (v *vnode) GetStat() (st com.Stat, err error) {
	defer comError(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return com.Stat{}, err
	}
	return com.Stat{
		Ino:     v.ino,
		Mode:    uint32(di.mode),
		Nlink:   uint32(di.links),
		UID:     uint32(di.uid),
		GID:     uint32(di.gid),
		Size:    uint64(di.size),
		Blocks:  (uint64(di.size) + BlockSize - 1) / BlockSize,
		Mtime:   uint64(di.mtime),
		BlkSize: BlockSize,
	}, nil
}

// SetSize implements com.File.
func (v *vnode) SetSize(size uint64) (err error) {
	defer comError(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return err
	}
	if di.isDir() {
		return com.ErrIsDir
	}
	if size > 1<<31 {
		return com.ErrNoSpace
	}
	if err := v.fs.itrunc(di, size); err != nil {
		return err
	}
	return v.fs.iput(v.ino, di)
}

// Sync implements com.File.
func (v *vnode) Sync() error { return nil }

// Lookup implements com.Dir.
func (v *vnode) Lookup(name string) (f com.File, err error) {
	defer comError(&err)
	di, err := v.dirInode()
	if err != nil {
		return nil, err
	}
	if name == "." {
		v.AddRef()
		return v, nil
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	ino, err := v.fs.dirLookup(di, name)
	if err != nil {
		return nil, err
	}
	return v.fs.newVnode(ino), nil
}

// Create implements com.Dir.
func (v *vnode) Create(name string, mode uint32, excl bool) (f com.File, err error) {
	defer comError(&err)
	di, err := v.dirInode()
	if err != nil {
		return nil, err
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	if ino, err := v.fs.dirLookup(di, name); err == nil {
		if excl {
			return nil, com.ErrExist
		}
		edi, err := v.fs.iget(ino)
		if err != nil {
			return nil, err
		}
		if edi.isDir() {
			return nil, com.ErrIsDir
		}
		return v.fs.newVnode(ino), nil
	}
	ino, err := v.fs.ialloc(uint16(com.ModeIFREG | mode&^com.ModeIFMT))
	if err != nil {
		return nil, err
	}
	if err := v.fs.dirEnter(di, v.ino, name, ino, ftRegular); err != nil {
		return nil, err
	}
	return v.fs.newVnode(ino), nil
}

// Mkdir implements com.Dir.
func (v *vnode) Mkdir(name string, mode uint32) (err error) {
	defer comError(&err)
	di, err := v.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	if _, err := v.fs.dirLookup(di, name); err == nil {
		return com.ErrExist
	}
	ino, err := v.fs.ialloc(uint16(com.ModeIFDIR | mode&^com.ModeIFMT))
	if err != nil {
		return err
	}
	ndi, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	ndi.links = 2
	if err := v.fs.iput(ino, ndi); err != nil {
		return err
	}
	if err := v.fs.dirEnter(di, v.ino, name, ino, ftDir); err != nil {
		return err
	}
	di2, err := v.fs.iget(v.ino)
	if err != nil {
		return err
	}
	di2.links++
	return v.fs.iput(v.ino, di2)
}

// Unlink implements com.Dir.
func (v *vnode) Unlink(name string) (err error) {
	defer comError(&err)
	di, err := v.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	ino, err := v.fs.dirLookup(di, name)
	if err != nil {
		return err
	}
	tdi, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	if tdi.isDir() {
		return com.ErrIsDir
	}
	if err := v.fs.dirRemove(di, v.ino, name); err != nil {
		return err
	}
	tdi.links--
	if tdi.links == 0 {
		return v.fs.ifreeData(ino, tdi)
	}
	return v.fs.iput(ino, tdi)
}

// Rmdir implements com.Dir.
func (v *vnode) Rmdir(name string) (err error) {
	defer comError(&err)
	di, err := v.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	ino, err := v.fs.dirLookup(di, name)
	if err != nil {
		return err
	}
	tdi, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	if !tdi.isDir() {
		return com.ErrNotDir
	}
	empty, err := v.fs.dirEmpty(tdi)
	if err != nil {
		return err
	}
	if !empty {
		return com.ErrNotEmpty
	}
	if err := v.fs.dirRemove(di, v.ino, name); err != nil {
		return err
	}
	if err := v.fs.ifreeData(ino, tdi); err != nil {
		return err
	}
	di2, err := v.fs.iget(v.ino)
	if err != nil {
		return err
	}
	di2.links--
	return v.fs.iput(v.ino, di2)
}

// Rename implements com.Dir (same file system only).
func (v *vnode) Rename(old string, newDir com.Dir, newName string) (err error) {
	nd, ok := newDir.(*vnode)
	if !ok || nd.fs != v.fs {
		return com.ErrXDev
	}
	defer comError(&err)
	sdi, err := v.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(old); err != nil {
		return err
	}
	if err := checkName(newName); err != nil {
		return err
	}
	ino, err := v.fs.dirLookup(sdi, old)
	if err != nil {
		return err
	}
	mdi, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	ftype := uint8(ftRegular)
	if mdi.isDir() {
		ftype = ftDir
	}
	ddi, err := nd.dirInode()
	if err != nil {
		return err
	}
	// Replace an existing regular file at the destination.
	if dstIno, err := v.fs.dirLookup(ddi, newName); err == nil {
		ddi2, err := v.fs.iget(dstIno)
		if err != nil {
			return err
		}
		if ddi2.isDir() {
			return com.ErrIsDir
		}
		if err := v.fs.dirRemove(ddi, nd.ino, newName); err != nil {
			return err
		}
		ddi2.links--
		if ddi2.links == 0 {
			if err := v.fs.ifreeData(dstIno, ddi2); err != nil {
				return err
			}
		} else if err := v.fs.iput(dstIno, ddi2); err != nil {
			return err
		}
	}
	// Remove from the source, enter at the destination (re-reading
	// inodes: the removals above may have rewritten them).
	sdi, err = v.dirInode()
	if err != nil {
		return err
	}
	if err := v.fs.dirRemove(sdi, v.ino, old); err != nil {
		return err
	}
	ddi, err = nd.dirInode()
	if err != nil {
		return err
	}
	return v.fs.dirEnter(ddi, nd.ino, newName, ino, ftype)
}

// ReadDir implements com.Dir.
func (v *vnode) ReadDir(start, count int) (ents []com.Dirent, err error) {
	defer comError(&err)
	di, err := v.dirInode()
	if err != nil {
		return nil, err
	}
	all, err := v.fs.dirList(di)
	if err != nil {
		return nil, err
	}
	if start < 0 || start > len(all) {
		return nil, com.ErrInval
	}
	all = all[start:]
	if count > 0 && count < len(all) {
		all = all[:count]
	}
	ents = make([]com.Dirent, len(all))
	for i, d := range all {
		ents[i] = com.Dirent{Ino: d.ino, Name: d.name}
	}
	return ents, nil
}

func (v *vnode) dirInode() (*inode, error) {
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return nil, err
	}
	if !di.isDir() {
		return nil, com.ErrNotDir
	}
	return di, nil
}

var _ com.Dir = (*vnode)(nil)
