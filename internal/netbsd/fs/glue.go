package netbsdfs

import (
	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
)

// The COM export: FileSystem/Dir/File nodes over the donor FFS code.
// The exported interfaces are of VFS granularity — Lookup takes exactly
// one pathname component — so wrapping code can interpose on every
// operation (§3.8).  Every method is a component entry point through
// FFS.enter (manufactured curproc + splbio, §4.7.5), and every donor
// errno leaves through entry.leave as its COM error.

// Mount reads the superblock and prepares the cache.  The device is any
// BlkIO — run-time binding per §4.2.2: this component has no link-time
// dependency on any driver.  The mount holds a reference on dev until
// Unmount and exports the cache's "netbsd_fs" statistics in g's registry.
func Mount(g *bsdglue.Glue, dev com.BlkIO) (fs *FFS, err error) {
	dev.AddRef()
	if fs, err = mount(g, dev); err != nil {
		dev.Release()
		return nil, bsdglue.COMError(err)
	}
	g.Env().Registry.Register(com.StatsIID, fs.cache.set)
	fs.cache.set.Release()
	return fs, nil
}

// Mkfs formats a BlkIO device with an empty file system (newfs).  The
// given inode count is rounded up to fill whole table blocks.
func Mkfs(dev com.BlkIO, ninodes uint32) error { return bsdglue.COMError(mkfs(dev, ninodes)) }

// entry is one COM call's stay in the component, from enter to leave.
type entry struct {
	fs      *FFS
	restore func()
	spl     int
}

// enter is the component prologue: a manufactured curproc and splbio.
// splbio is the component's one exclusion on every machine (the glue is
// bsdglue.New, giant exclusion on any CPU count).  Every sleep under it
// — tsleep, or the disk driver's sleep_on — drops it while the thread
// blocks, so another thread may enter meanwhile.
func (fs *FFS) enter(what string) entry {
	return entry{fs, fs.g.Enter(what), fs.g.Splbio()}
}

// leave is the epilogue.  It translates the donor errno in *err, if
// any, to the COM error the caller sees.
func (e entry) leave(err *error) {
	e.fs.g.Splx(e.spl)
	e.restore()
	*err = bsdglue.COMError(*err)
}

// vnode is one COM file/directory node.  Nodes are created per lookup
// (stateless: the inode number is the identity; metadata is re-read from
// the cache as needed).
type vnode struct {
	com.RefCount
	fs  *FFS
	ino uint32
}

func (fs *FFS) newVnode(ino uint32) *vnode {
	v := &vnode{fs: fs, ino: ino}
	v.Init()
	return v
}

// QueryInterface implements com.IUnknown: directories answer for Dir,
// everything answers for File.
func (v *vnode) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.FileIID:
		v.AddRef()
		return v, nil
	case com.DirIID:
		e := v.fs.enter("query")
		di, err := v.fs.iget(v.ino)
		e.leave(&err)
		if err != nil {
			// A faulted inode read is not "no such interface": the
			// caller must see the transient error and retry, or a 404
			// would be manufactured out of a disk fault.
			return nil, err
		}
		if isDir(&di) {
			v.AddRef()
			return v, nil
		}
	case com.SendfileIID:
		// Regular files additionally export the zero-copy page seam
		// (E15); directories do not, and clients that never ask keep
		// the plain File contract untouched (§4.4.2).
		e := v.fs.enter("query")
		di, err := v.fs.iget(v.ino)
		e.leave(&err)
		if err != nil {
			return nil, err
		}
		if !isDir(&di) {
			v.AddRef()
			return v, nil
		}
	}
	return nil, com.ErrNoInterface
}

// --- com.FileSystem on *FFS.

// QueryInterface implements com.IUnknown.
func (fs *FFS) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.FileSystemIID:
		// The FFS itself is not refcounted (owned by the client);
		// return it with a vacuous count.
		return fs, nil
	}
	return nil, com.ErrNoInterface
}

// AddRef implements com.IUnknown; the mount is client-owned.
func (fs *FFS) AddRef() uint32 { return 1 }

// Release implements com.IUnknown.
func (fs *FFS) Release() uint32 { return 1 }

// GetRoot implements com.FileSystem.
func (fs *FFS) GetRoot() (com.Dir, error) {
	if fs.unmounted {
		return nil, com.ErrBadF
	}
	return fs.newVnode(RootIno), nil
}

// StatFS implements com.FileSystem.
func (fs *FFS) StatFS() (st com.StatFS, err error) {
	defer fs.enter("statfs").leave(&err)
	return com.StatFS{
		BlockSize:   BlockSize,
		TotalBlocks: uint64(fs.sb.nblocks),
		FreeBlocks:  uint64(fs.sb.freeBlocks),
		TotalFiles:  uint64(fs.sb.ninodes),
		FreeFiles:   uint64(fs.sb.freeInodes),
	}, nil
}

// Sync implements com.FileSystem: flush the buffer cache.
func (fs *FFS) Sync() (err error) {
	defer fs.enter("sync").leave(&err)
	return fs.cache.sync()
}

// Unmount implements com.FileSystem.
func (fs *FFS) Unmount() (err error) {
	defer fs.enter("unmount").leave(&err)
	if fs.unmounted {
		return com.ErrBadF
	}
	if err := fs.cache.sync(); err != nil {
		return err
	}
	fs.unmounted = true
	fs.dev.(com.BlkIO).Release()
	return nil
}

var _ com.FileSystem = (*FFS)(nil)

// --- com.File on vnode.

// ReadAt implements com.File.
func (v *vnode) ReadAt(buf []byte, offset uint64) (n uint, err error) {
	defer v.fs.enter("read").leave(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return 0, err
	}
	if isDir(&di) {
		return 0, com.ErrIsDir
	}
	return v.fs.readi(&di, buf, offset)
}

// WriteAt implements com.File.
func (v *vnode) WriteAt(buf []byte, offset uint64) (n uint, err error) {
	defer v.fs.enter("write").leave(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return 0, err
	}
	if isDir(&di) {
		return 0, com.ErrIsDir
	}
	n, werr := v.fs.writei(&di, buf, offset)
	if err := v.fs.iput(v.ino, &di); err != nil {
		return n, err
	}
	return n, werr
}

// GetStat implements com.File.
func (v *vnode) GetStat() (st com.Stat, err error) {
	defer v.fs.enter("stat").leave(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return com.Stat{}, err
	}
	return com.Stat{
		Ino:     v.ino,
		Mode:    uint32(di.mode),
		Nlink:   uint32(di.nlink),
		UID:     uint32(di.uid),
		GID:     uint32(di.gid),
		Size:    di.size,
		Blocks:  (di.size + BlockSize - 1) / BlockSize,
		Mtime:   di.mtime,
		BlkSize: BlockSize,
	}, nil
}

// SetSize implements com.File.
func (v *vnode) SetSize(size uint64) (err error) {
	defer v.fs.enter("truncate").leave(&err)
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return err
	}
	if isDir(&di) {
		return com.ErrIsDir
	}
	if err := v.fs.itrunc(&di, size); err != nil {
		return err
	}
	return v.fs.iput(v.ino, &di)
}

// Sync implements com.File (whole-cache flush, as small FFSes did).
func (v *vnode) Sync() (err error) {
	defer v.fs.enter("fsync").leave(&err)
	return v.fs.cache.sync()
}

// --- com.Dir on vnode.

// Lookup implements com.Dir: one component.
func (v *vnode) Lookup(name string) (f com.File, err error) {
	defer v.fs.enter("lookup").leave(&err)
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
	ino, _, err := v.fs.dirLookup(di, name)
	if err != nil {
		return nil, err
	}
	return v.fs.newVnode(ino), nil
}

// Create implements com.Dir.
func (v *vnode) Create(name string, mode uint32, excl bool) (f com.File, err error) {
	defer v.fs.enter("create").leave(&err)
	di, err := v.dirInode()
	if err != nil {
		return nil, err
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	if ino, _, err := v.fs.dirLookup(di, name); err == nil {
		if excl {
			return nil, com.ErrExist
		}
		edi, err := v.fs.iget(ino)
		if err != nil {
			return nil, err
		}
		if isDir(&edi) {
			return nil, com.ErrIsDir
		}
		return v.fs.newVnode(ino), nil
	}
	ino, err := v.fs.ialloc(uint16(com.ModeIFREG | mode&^com.ModeIFMT))
	if err != nil {
		return nil, err
	}
	if err := v.fs.dirEnter(di, name, ino); err != nil {
		return nil, err
	}
	if err := v.fs.iput(v.ino, di); err != nil {
		return nil, err
	}
	return v.fs.newVnode(ino), nil
}

// Mkdir implements com.Dir.
func (v *vnode) Mkdir(name string, mode uint32) (err error) {
	defer v.fs.enter("mkdir").leave(&err)
	di, err := v.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	if _, _, err := v.fs.dirLookup(di, name); err == nil {
		return com.ErrExist
	}
	ino, err := v.fs.ialloc(uint16(com.ModeIFDIR | mode&^com.ModeIFMT))
	if err != nil {
		return err
	}
	// Directories carry nlink 2 (self + parent's entry).
	ndi, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	ndi.nlink = 2
	if err := v.fs.iput(ino, &ndi); err != nil {
		return err
	}
	if err := v.fs.dirEnter(di, name, ino); err != nil {
		return err
	}
	di.nlink++
	return v.fs.iput(v.ino, di)
}

// Unlink implements com.Dir.
func (v *vnode) Unlink(name string) (err error) {
	defer v.fs.enter("unlink").leave(&err)
	di, err := v.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	ino, slot, err := v.fs.dirLookup(di, name)
	if err != nil {
		return err
	}
	tdi, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	if isDir(&tdi) {
		return com.ErrIsDir
	}
	if err := v.fs.dirRemove(di, slot); err != nil {
		return err
	}
	tdi.nlink--
	if tdi.nlink == 0 {
		return v.fs.ifreeData(ino, &tdi)
	}
	return v.fs.iput(ino, &tdi)
}

// Rmdir implements com.Dir.
func (v *vnode) Rmdir(name string) (err error) {
	defer v.fs.enter("rmdir").leave(&err)
	di, err := v.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(name); err != nil {
		return err
	}
	ino, slot, err := v.fs.dirLookup(di, name)
	if err != nil {
		return err
	}
	tdi, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	if !isDir(&tdi) {
		return com.ErrNotDir
	}
	empty, err := v.fs.dirEmpty(&tdi)
	if err != nil {
		return err
	}
	if !empty {
		return com.ErrNotEmpty
	}
	if err := v.fs.dirRemove(di, slot); err != nil {
		return err
	}
	if err := v.fs.ifreeData(ino, &tdi); err != nil {
		return err
	}
	di.nlink--
	return v.fs.iput(v.ino, di)
}

// Rename implements com.Dir (same file system only).
func (v *vnode) Rename(old string, newDir com.Dir, newName string) (err error) {
	nd, ok := newDir.(*vnode)
	if !ok || nd.fs != v.fs {
		return com.ErrXDev
	}
	defer v.fs.enter("rename").leave(&err)
	sdi, err := v.dirInode()
	if err != nil {
		return err
	}
	ddi, err := nd.dirInode()
	if err != nil {
		return err
	}
	if err := checkName(old); err != nil {
		return err
	}
	if err := checkName(newName); err != nil {
		return err
	}
	ino, slot, err := v.fs.dirLookup(sdi, old)
	if err != nil {
		return err
	}
	// A directory may not move into its own subtree, and one that
	// changes parents takes its link to the parent along.
	src, err := v.fs.iget(ino)
	if err != nil {
		return err
	}
	movesDir := isDir(&src) && nd.ino != v.ino
	if isDir(&src) {
		under, err := v.fs.dirUnder(nd.ino, ino)
		if err != nil {
			return err
		}
		if under {
			return com.ErrInval
		}
	}
	// Replace an existing regular file at the destination; a rename
	// onto the same link does nothing (POSIX).
	if dstIno, dstSlot, err := v.fs.dirLookup(ddi, newName); err == nil {
		if dstIno == ino {
			return nil
		}
		ddi2, err := v.fs.iget(dstIno)
		if err != nil {
			return err
		}
		if isDir(&ddi2) {
			return com.ErrIsDir
		}
		if err := v.fs.dirRemove(ddi, dstSlot); err != nil {
			return err
		}
		ddi2.nlink--
		if ddi2.nlink == 0 {
			if err := v.fs.ifreeData(dstIno, &ddi2); err != nil {
				return err
			}
		} else if err := v.fs.iput(dstIno, &ddi2); err != nil {
			return err
		}
		// Re-read the directory inode if it is the same as the source.
		if nd.ino == v.ino {
			sdi, err = v.dirInode()
			if err != nil {
				return err
			}
			ddi = sdi
		}
		// The source slot may have moved? No: slots are stable.
	}
	if err := v.fs.dirRemove(sdi, slot); err != nil {
		return err
	}
	if movesDir {
		sdi.nlink--
	}
	if err := v.fs.iput(v.ino, sdi); err != nil {
		return err
	}
	if nd.ino == v.ino {
		ddi = sdi
	}
	if err := v.fs.dirEnter(ddi, newName, ino); err != nil {
		return err
	}
	if movesDir {
		ddi.nlink++
	}
	return v.fs.iput(nd.ino, ddi)
}

// ReadDir implements com.Dir.
func (v *vnode) ReadDir(start, count int) (ents []com.Dirent, err error) {
	defer v.fs.enter("readdir").leave(&err)
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

// dirInode fetches v's inode, requiring a directory.
func (v *vnode) dirInode() (*dinode, error) {
	di, err := v.fs.iget(v.ino)
	if err != nil {
		return nil, err
	}
	if !isDir(&di) {
		return nil, com.ErrNotDir
	}
	return &di, nil
}

var _ com.Dir = (*vnode)(nil)
