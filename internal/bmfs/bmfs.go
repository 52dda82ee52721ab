// Package bmfs is the boot-module file system (paper §6.2.2): a RAM file
// system, accessible immediately upon bootstrap through the POSIX layer's
// standard open/close/read/write interfaces, populated from the boot
// modules the loader placed in memory.
//
// A module whose string is "bin/init args…" appears as the file
// /bin/init (only the first whitespace-separated word of the string names
// the file; the rest is the module's argument text, retrievable with
// ModuleArgs).  Intermediate directories are created on demand.
//
// The paper's clients leaned on this heavily: Fluke's first user program
// and root file system, ML/OS's precompiled heap image, Java/PC's class
// files all came from boot modules, because it "invariably proved to be
// by far the most simple, robust, and convenient" way to get data to a
// young kernel.  The kit's bmfs is writable — it is an ordinary RAM FS
// once populated — which is what lets it act as a root file system.
package bmfs

import (
	"cmp"
	"sort"
	"strings"
	"sync"

	"oskit/internal/boot"
	"oskit/internal/com"
	"oskit/internal/hw"
	"oskit/internal/stats"
)

// FS is the boot-module RAM file system.  It implements com.FileSystem.
type FS struct {
	com.RefCount
	mu      sync.Mutex
	root    *node
	nextIno uint32
	ticks   func() uint64 // time source for stamps; may be nil
	args    map[string]string

	// com.Stats export.  The file system has no environment handle, so
	// whoever assembles the configuration registers StatsSet().
	set       *stats.Set
	scReads   *stats.Counter
	scWrites  *stats.Counter
	scRdBytes *stats.Counter
	scWrBytes *stats.Counter
	scLookups *stats.Counter
}

// node is one file or directory.
type node struct {
	fs *FS
	com.RefCount
	ino      uint32
	mode     uint32
	data     []byte           // regular files
	children map[string]*node // directories
	nlink    uint32
	mtime    uint64
}

// New creates an empty RAM file system.  ticks supplies timestamps and
// may be nil.
func New(ticks func() uint64) *FS {
	fs := &FS{ticks: ticks, args: map[string]string{}, nextIno: 1}
	fs.Init()
	fs.set = stats.NewSet("bmfs")
	fs.scReads = fs.set.Counter("fs.reads")
	fs.scWrites = fs.set.Counter("fs.writes")
	fs.scRdBytes = fs.set.Counter("fs.read_bytes")
	fs.scWrBytes = fs.set.Counter("fs.write_bytes")
	fs.scLookups = fs.set.Counter("fs.lookups")
	fs.root = fs.newNode(com.ModeIFDIR|0o755, fs.now())
	fs.root.children = map[string]*node{}
	return fs
}

// StatsSet exposes the file system's com.Stats export for registration
// in a services registry.  The FS keeps its own reference.
func (f *FS) StatsSet() *stats.Set { return f.set }

// Populate creates files from the boot modules described by info, reading
// their contents out of physical memory.  It returns the number of files
// created.
func (f *FS) Populate(info *boot.Info, mem *hw.PhysMem) (int, error) {
	n := 0
	for _, m := range info.Modules {
		name, rest, _ := strings.Cut(m.String, " ")
		name = strings.Trim(name, "/")
		if name == "" {
			continue
		}
		data, err := mem.Slice(m.Addr, m.Size)
		if err != nil {
			return n, err
		}
		if err := f.writeFile(name, append([]byte(nil), data...)); err != nil {
			return n, err
		}
		f.mu.Lock()
		f.args["/"+name] = rest
		f.mu.Unlock()
		n++
	}
	return n, nil
}

// ModuleArgs returns the argument text that followed the file name in the
// boot-module string for path (e.g. "/bin/init").
func (f *FS) ModuleArgs(path string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.args[path]
}

// writeFile creates path (slash-separated, relative to root) with data,
// making intermediate directories.
func (f *FS) writeFile(path string, data []byte) error {
	ts := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	parts := strings.Split(path, "/")
	dir := f.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := dir.children[p]
		if !ok {
			child = f.newNode(com.ModeIFDIR|0o755, ts)
			child.children = map[string]*node{}
			dir.children[p] = child
			dir.nlink++
		}
		if child.mode&com.ModeIFMT != com.ModeIFDIR {
			return com.ErrNotDir
		}
		dir = child
	}
	leaf := parts[len(parts)-1]
	file, ok := dir.children[leaf]
	if !ok {
		file = f.newNode(com.ModeIFREG|0o644, ts)
		dir.children[leaf] = file
	}
	if file.mode&com.ModeIFMT != com.ModeIFREG {
		return com.ErrIsDir
	}
	file.data = data
	file.mtime = ts
	return nil
}

// newNode allocates a node stamped with ts.  Callers pass a timestamp
// read *before* taking f.mu: the ticks source is an interposable
// function field and must not run under the lock (lockhook).
func (f *FS) newNode(mode uint32, ts uint64) *node {
	n := &node{fs: f, ino: f.nextIno, mode: mode, nlink: 1, mtime: ts}
	f.nextIno++
	n.Init()
	return n
}

func (f *FS) now() uint64 {
	if f.ticks == nil {
		return 0
	}
	return f.ticks()
}

// --- com.FileSystem ---

// QueryInterface implements com.IUnknown.
func (f *FS) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.FileSystemIID:
		f.AddRef()
		return f, nil
	}
	return nil, com.ErrNoInterface
}

// GetRoot implements com.FileSystem.
func (f *FS) GetRoot() (com.Dir, error) {
	f.root.AddRef()
	return f.root, nil
}

// StatFS implements com.FileSystem.
func (f *FS) StatFS() (com.StatFS, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var files, bytes uint64
	var walk func(*node)
	walk = func(n *node) {
		files++
		bytes += uint64(len(n.data))
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(f.root)
	return com.StatFS{BlockSize: 1, TotalBlocks: bytes, TotalFiles: files}, nil
}

// Sync implements com.FileSystem; RAM needs no flushing.
func (f *FS) Sync() error { return nil }

// Unmount implements com.FileSystem.
func (f *FS) Unmount() error { return nil }

var _ com.FileSystem = (*FS)(nil)

// --- node as com.File / com.Dir ---

// QueryInterface implements com.IUnknown: directories answer for Dir and
// File, regular files for File only.
func (n *node) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.FileIID:
		n.AddRef()
		return n, nil
	case com.DirIID:
		if n.isDir() {
			n.AddRef()
			return n, nil
		}
	}
	return nil, com.ErrNoInterface
}

func (n *node) isDir() bool { return n.mode&com.ModeIFMT == com.ModeIFDIR }

// ReadAt implements com.File.
func (n *node) ReadAt(buf []byte, offset uint64) (uint, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if n.isDir() {
		return 0, com.ErrIsDir
	}
	if offset >= uint64(len(n.data)) {
		return 0, nil
	}
	got := uint(copy(buf, n.data[offset:]))
	n.fs.scReads.Inc()
	n.fs.scRdBytes.Add(uint64(got))
	return got, nil
}

// WriteAt implements com.File, extending with a zero-filled gap when the
// offset is past EOF.  An empty write extends nothing.
func (n *node) WriteAt(buf []byte, offset uint64) (uint, error) {
	ts := n.fs.now()
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if n.isDir() {
		return 0, com.ErrIsDir
	}
	if len(buf) == 0 {
		return 0, nil
	}
	end := offset + uint64(len(buf))
	if end > uint64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[offset:], buf)
	n.mtime = ts
	n.fs.scWrites.Inc()
	n.fs.scWrBytes.Add(uint64(len(buf)))
	return uint(len(buf)), nil
}

// GetStat implements com.File.
func (n *node) GetStat() (com.Stat, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	return com.Stat{
		Ino:     n.ino,
		Mode:    n.mode,
		Nlink:   n.nlink,
		Size:    uint64(len(n.data)),
		Blocks:  uint64(len(n.data)),
		Mtime:   n.mtime,
		BlkSize: 1,
	}, nil
}

// SetSize implements com.File.
func (n *node) SetSize(size uint64) error {
	ts := n.fs.now()
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if n.isDir() {
		return com.ErrIsDir
	}
	if size <= uint64(len(n.data)) {
		n.data = n.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	n.mtime = ts
	return nil
}

// Sync implements com.File.
func (n *node) Sync() error { return nil }

// Lookup implements com.Dir.  name is a single component (§3.8).
func (n *node) Lookup(name string) (com.File, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	child, err := n, error(nil)
	if name != "." || !n.isDir() {
		child, err = n.lookupLocked(name)
	}
	if err != nil {
		return nil, err
	}
	n.fs.scLookups.Inc()
	child.AddRef()
	return child, nil
}

func (n *node) lookupLocked(name string) (*node, error) {
	if !n.isDir() {
		return nil, com.ErrNotDir
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	child, ok := n.children[name]
	if !ok {
		return nil, com.ErrNoEnt
	}
	return child, nil
}

// Create implements com.Dir.
func (n *node) Create(name string, mode uint32, excl bool) (com.File, error) {
	ts := n.fs.now()
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if !n.isDir() {
		return nil, com.ErrNotDir
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	if existing, ok := n.children[name]; ok {
		if excl {
			return nil, com.ErrExist
		}
		if existing.isDir() {
			return nil, com.ErrIsDir
		}
		existing.AddRef()
		return existing, nil
	}
	file := n.fs.newNode(com.ModeIFREG|mode&^com.ModeIFMT, ts)
	n.children[name] = file
	n.mtime = ts
	file.AddRef()
	return file, nil
}

// Mkdir implements com.Dir.
func (n *node) Mkdir(name string, mode uint32) error {
	ts := n.fs.now()
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if !n.isDir() {
		return com.ErrNotDir
	}
	if err := checkName(name); err != nil {
		return err
	}
	if _, ok := n.children[name]; ok {
		return com.ErrExist
	}
	d := n.fs.newNode(com.ModeIFDIR|mode&^com.ModeIFMT, ts)
	d.children = map[string]*node{}
	n.children[name] = d
	n.nlink++
	n.mtime = ts
	return nil
}

// Unlink implements com.Dir.
func (n *node) Unlink(name string) error {
	ts := n.fs.now()
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	child, err := n.lookupLocked(name)
	if err != nil {
		return err
	}
	if child.isDir() {
		return com.ErrIsDir
	}
	delete(n.children, name)
	n.mtime = ts
	child.Release()
	return nil
}

// Rmdir implements com.Dir.
func (n *node) Rmdir(name string) error {
	ts := n.fs.now()
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	child, err := n.lookupLocked(name)
	if err != nil {
		return err
	}
	if !child.isDir() {
		return com.ErrNotDir
	}
	if len(child.children) != 0 {
		return com.ErrNotEmpty
	}
	delete(n.children, name)
	n.nlink--
	n.mtime = ts
	child.Release()
	return nil
}

// Rename implements com.Dir.
func (n *node) Rename(old string, newDir com.Dir, newName string) error {
	dst, ok := newDir.(*node)
	if !ok || dst.fs != n.fs {
		return com.ErrXDev
	}
	ts := n.fs.now()
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if !n.isDir() || !dst.isDir() {
		return com.ErrNotDir
	}
	if err := cmp.Or(checkName(old), checkName(newName)); err != nil {
		return err
	}
	child, err := n.lookupLocked(old)
	if err != nil {
		return err
	}
	if existing, ok := dst.children[newName]; ok {
		if existing == child {
			return nil // the same link: nothing to do (POSIX)
		}
		if existing.isDir() {
			return com.ErrIsDir
		}
		existing.Release()
	}
	delete(n.children, old)
	dst.children[newName] = child
	n.mtime = ts
	dst.mtime = ts
	return nil
}

// ReadDir implements com.Dir, in name order.
func (n *node) ReadDir(start, count int) ([]com.Dirent, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if !n.isDir() {
		return nil, com.ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	if start < 0 || start > len(names) {
		return nil, com.ErrInval
	}
	names = names[start:]
	if count > 0 && count < len(names) {
		names = names[:count]
	}
	out := make([]com.Dirent, len(names))
	for i, name := range names {
		out[i] = com.Dirent{Ino: n.children[name].ino, Name: name}
	}
	return out, nil
}

var _ com.Dir = (*node)(nil)

// checkName enforces the single-component rule of §3.8 ("." is Lookup's).
func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return com.ErrInval
	}
	if strings.ContainsRune(name, '/') {
		return com.ErrInval
	}
	if len(name) > 255 {
		return com.ErrNameLong
	}
	return nil
}
