package netbsdfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"oskit/internal/bmfs"
	"oskit/internal/com"
	"oskit/internal/core"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/lmm"
	netbsdfs "oskit/internal/netbsd/fs"
)

// The differential test: one bounded program of file calls runs on an
// FFS over a memory disk and on bmfs, the kit's RAM file system, which
// exports the same com.FileSystem/Dir/File shape and serves as the
// model.  Every call's COM error, every byte read, every file size and
// every sorted directory listing must agree.  The two differ by design
// in exactly these places, which the test keeps out of its comparisons:
//
//   - FFS has a disk and bmfs has none: an FFS call may fail with
//     com.ErrNoSpace where bmfs succeeds.  The program stops comparing
//     there, because the FFS call may have done part of its work.  The
//     disk is large enough that no fixed seed gets there.
//   - FFS's on-disk entry holds a name of at most 59 bytes and bmfs's
//     limit is 255, so the programs use no name longer than 59.
//   - Only FFS has a medium: Sync, Unmount and Mount are checked on FFS
//     alone, and bmfs must simply still agree after them.
//   - A directory's size is its entry slots on FFS and 0 on bmfs, so
//     sizes are compared for regular files only.

// Program bounds.  Offsets and lengths reach FFS's indirect block
// (file block 8 onward) but not its double-indirect one.
const (
	maxOps     = 48
	diskBlocks = 512
	offUnit    = 48 // write/truncate offsets are a byte times this
	lenUnit    = 8  // write/read lengths are a byte times this
)

type opKind int

const (
	opCreate opKind = iota
	opCreateExcl
	opLookup
	opWrite
	opRead
	opSetSize
	opMkdir
	opRename
	opUnlink
	opRmdir
	opReadDir
	opSync
	opRemount
	nOpKinds
)

var opNames = [...]string{"create", "create-excl", "lookup", "write", "read", "setsize",
	"mkdir", "rename", "unlink", "rmdir", "readdir", "sync", "remount"}

// fileOp is one decoded call.  dir/name name the object, dir2/name2 a
// rename's destination; off and n are a write's or read's offset and
// length (a truncation's size is off).
type fileOp struct {
	kind      opKind
	dir, dir2 []string
	name      string
	name2     string
	off, n    uint64
	fill      byte
}

func (op fileOp) String() string {
	s := fmt.Sprintf("%s %q", opNames[op.kind], strings.Join(append(slices.Clone(op.dir), op.name), "/"))
	switch op.kind {
	case opWrite, opRead:
		s += fmt.Sprintf(" off=%d n=%d", op.off, op.n)
	case opSetSize:
		s += fmt.Sprintf(" size=%d", op.off)
	case opRename:
		s += fmt.Sprintf(" -> %q", strings.Join(append(slices.Clone(op.dir2), op.name2), "/"))
	case opReadDir:
		s = fmt.Sprintf("%s %q", opNames[op.kind], strings.Join(op.dir, "/"))
	case opSync, opRemount:
		s = opNames[op.kind]
	}
	return s
}

// decodeProgram turns bytes into a program of at most maxOps calls.
// Every byte string decodes; a short one gives a short program.  Each
// call is an opcode byte and its argument bytes (a missing byte reads
// as zero).  A directory is one byte: depth 0-2 in its low bits, one of
// four names per level above them, so programs keep meeting the paths
// they made.  An object name is one byte: mostly one of the same four
// names, sometimes one that both file systems must refuse.
func decodeProgram(data []byte) []fileOp {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	names := [4]string{"a", "b", "c", "d"}
	dir := func() []string {
		b := next()
		p := make([]string, b%3)
		for i := range p {
			p[i] = names[b>>(2+2*i)&3]
		}
		return p
	}
	name := func() string {
		b := next()
		if b%32 >= 28 {
			return [4]string{".", "..", "", "x/y"}[b%4]
		}
		return names[b%4]
	}
	var prog []fileOp
	for len(prog) < maxOps && pos < len(data) {
		op := fileOp{kind: opKind(next() % byte(nOpKinds))}
		switch op.kind {
		case opReadDir:
			op.dir = dir()
		case opSync, opRemount:
		case opRename:
			op.dir, op.name = dir(), name()
			op.dir2, op.name2 = dir(), name()
		default:
			op.dir, op.name = dir(), name()
		}
		switch op.kind {
		case opWrite:
			op.off, op.n, op.fill = uint64(next())*offUnit, uint64(next())*lenUnit, next()
		case opRead:
			op.off, op.n = uint64(next())*offUnit, uint64(next())*lenUnit
		case opSetSize:
			op.off = uint64(next()) * offUnit
		}
		prog = append(prog, op)
	}
	return prog
}

// fsUnderTest is one side of the comparison.
type fsUnderTest struct {
	fs      com.FileSystem
	remount func() error
}

// fileRig holds what every FFS of a test shares: one machine and arena.
type fileRig struct {
	m     *hw.Machine
	arena *lmm.Arena
}

func newFileRig(tb testing.TB) *fileRig {
	tb.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 4 << 20})
	tb.Cleanup(m.Halt)
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x100000, 2<<20, 0, 0); err != nil {
		tb.Fatal(err)
	}
	arena.AddFree(0x100000, 2<<20)
	return &fileRig{m: m, arena: arena}
}

// ffs formats a fresh memory disk and mounts it.  Each FFS gets its
// own environment, so its statistics registrations go with it.
func (r *fileRig) ffs() (*fsUnderTest, error) {
	g := bsdglue.New(core.NewEnv(r.m, r.arena))
	// The creator's reference on dev stays for the remounts.
	dev := com.NewMemBuf(make([]byte, diskBlocks*netbsdfs.BlockSize))
	if err := netbsdfs.Mkfs(dev, 0); err != nil {
		return nil, err
	}
	ffs, err := netbsdfs.Mount(g, dev)
	if err != nil {
		return nil, err
	}
	side := &fsUnderTest{fs: ffs}
	side.remount = func() error {
		if err := ffs.Unmount(); err != nil {
			return fmt.Errorf("unmount: %w", err)
		}
		if ffs, err = netbsdfs.Mount(g, dev); err != nil {
			return fmt.Errorf("mount: %w", err)
		}
		side.fs = ffs
		return nil
	}
	return side, nil
}

// walk resolves a directory path from the root, one component a call.
func walk(fs com.FileSystem, p []string) (com.Dir, error) {
	d, err := fs.GetRoot()
	if err != nil {
		return nil, err
	}
	for _, name := range p {
		f, err := d.Lookup(name)
		d.Release()
		if err != nil {
			return nil, err
		}
		u, err := f.QueryInterface(com.DirIID)
		f.Release()
		if err != nil {
			return nil, err
		}
		d = u.(com.Dir)
	}
	return d, nil
}

// outcome is what one call showed: its error, the bytes it read or
// wrote, the names it listed, and the size and type of what it touched.
type outcome struct {
	err   error
	n     uint
	data  []byte
	names []string
	isDir bool
	size  uint64
}

func (o outcome) String() string {
	s := fmt.Sprintf("err=%v n=%d dir=%v size=%d", o.err, o.n, o.isDir, o.size)
	if o.names != nil {
		s += fmt.Sprintf(" names=%q", o.names)
	}
	return s
}

func (o outcome) equal(p outcome) bool {
	return o.err == p.err && o.n == p.n && bytes.Equal(o.data, p.data) &&
		slices.Equal(o.names, p.names) && o.isDir == p.isDir && o.size == p.size
}

// listing is d's sorted entry names.
func listing(d com.Dir) ([]string, error) {
	ents, err := d.ReadDir(0, 0)
	if err != nil {
		return nil, err
	}
	names := []string{}
	for _, e := range ents {
		names = append(names, e.Name)
	}
	slices.Sort(names)
	return names, nil
}

// describe fills in the type and, for a regular file, the size of f.
func describe(o *outcome, f com.File) {
	st, err := f.GetStat()
	if err != nil {
		o.err = err
		return
	}
	o.isDir = st.Mode&com.ModeIFMT == com.ModeIFDIR
	if !o.isDir {
		o.size = st.Size
	}
}

// apply runs op on side and records what it showed.
func apply(side *fsUnderTest, op fileOp) (o outcome) {
	switch op.kind {
	case opSync:
		o.err = side.fs.Sync()
		return o
	case opRemount:
		if side.remount != nil {
			o.err = side.remount()
		}
		return o
	}
	d, err := walk(side.fs, op.dir)
	if err != nil {
		o.err = err
		return o
	}
	defer d.Release()
	// withFile runs fn on the object the call names, then describes it.
	withFile := func(fn func(com.File)) {
		f, err := d.Lookup(op.name)
		if err != nil {
			o.err = err
			return
		}
		defer f.Release()
		fn(f)
		if o.err == nil {
			describe(&o, f)
		}
	}
	switch op.kind {
	case opCreate, opCreateExcl:
		f, err := d.Create(op.name, 0o644, op.kind == opCreateExcl)
		if o.err = err; err == nil {
			describe(&o, f)
			f.Release()
		}
	case opLookup:
		withFile(func(com.File) {})
	case opWrite:
		buf := make([]byte, op.n)
		for i := range buf {
			buf[i] = op.fill + byte(i)
		}
		withFile(func(f com.File) { o.n, o.err = f.WriteAt(buf, op.off) })
	case opRead:
		withFile(func(f com.File) {
			buf := make([]byte, op.n)
			o.n, o.err = f.ReadAt(buf, op.off)
			o.data = buf[:o.n]
		})
	case opSetSize:
		withFile(func(f com.File) { o.err = f.SetSize(op.off) })
	case opMkdir:
		o.err = d.Mkdir(op.name, 0o755)
	case opRename:
		d2, err := walk(side.fs, op.dir2)
		if err != nil {
			o.err = err
			return o
		}
		defer d2.Release()
		o.err = d.Rename(op.name, d2, op.name2)
	case opUnlink:
		o.err = d.Unlink(op.name)
	case opRmdir:
		o.err = d.Rmdir(op.name)
	case opReadDir:
		o.names, o.err = listing(d)
	}
	return o
}

// treeDump renders a whole tree: every directory's sorted listing and
// every regular file's contents, reached from the root by Lookup.
func treeDump(fs com.FileSystem) (string, error) {
	var b strings.Builder
	var dump func(d com.Dir, at string) error
	dump = func(d com.Dir, at string) error {
		names, err := listing(d)
		if err != nil {
			return err
		}
		for _, name := range names {
			f, err := d.Lookup(name)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", at, name, err)
			}
			if u, err := f.QueryInterface(com.DirIID); err == nil {
				fmt.Fprintf(&b, "%s/%s/\n", at, name)
				err = dump(u.(com.Dir), at+"/"+name)
				u.Release()
			} else {
				err = dumpFile(&b, f, at+"/"+name)
			}
			f.Release()
			if err != nil {
				return err
			}
		}
		return nil
	}
	root, err := fs.GetRoot()
	if err != nil {
		return "", err
	}
	defer root.Release()
	err = dump(root, "")
	return b.String(), err
}

func dumpFile(b *strings.Builder, f com.File, at string) error {
	st, err := f.GetStat()
	if err != nil {
		return err
	}
	data := make([]byte, st.Size)
	for off := uint64(0); off < st.Size; {
		n, err := f.ReadAt(data[off:], off)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("%s: read 0 at %d of %d", at, off, st.Size)
		}
		off += uint64(n)
	}
	fmt.Fprintf(b, "%s %d %x\n", at, st.Size, data)
	return nil
}

// runProgram runs prog on a fresh FFS and a fresh bmfs and returns the
// first divergence, or nil.
func runProgram(r *fileRig, prog []fileOp) (err error) {
	defer func() {
		if err != nil {
			var b strings.Builder
			for i, op := range prog {
				fmt.Fprintf(&b, "\t%d: %v\n", i, op)
			}
			err = fmt.Errorf("%w\nprogram:\n%s", err, b.String())
		}
	}()
	ffs, err := r.ffs()
	if err != nil {
		return err
	}
	model := &fsUnderTest{fs: bmfs.New(nil)}
	for i, op := range prog {
		got, want := apply(ffs, op), apply(model, op)
		if got.err == com.ErrNoSpace && want.err == nil {
			return nil // the disk is full: see the list at the top
		}
		if !got.equal(want) {
			return fmt.Errorf("op %d (%v): ffs %v, bmfs %v", i, op, got, want)
		}
	}
	if err := ffs.remount(); err != nil {
		return fmt.Errorf("final remount: %w", err)
	}
	got, err := treeDump(ffs.fs)
	if err != nil {
		return fmt.Errorf("ffs tree: %w", err)
	}
	want, err := treeDump(model.fs)
	if err != nil {
		return fmt.Errorf("bmfs tree: %w", err)
	}
	if got != want {
		return fmt.Errorf("trees differ after remount:\nffs:\n%sbmfs:\n%s", got, want)
	}
	if errs := ffs.fs.(*netbsdfs.FFS).Fsck(); len(errs) != 0 {
		return fmt.Errorf("fsck: %v", errs)
	}
	return ffs.fs.Unmount()
}

// seedProgram is the byte string a fixed seed stands for.
func seedProgram(seed int64) []byte {
	data := make([]byte, 4*maxOps)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

const fixedSeeds = 200

// TestFileProgramsAgree runs a few written programs, then the fixed
// seeds' programs.  The written ones are the client sequence both file
// systems must serve alike and the shapes on which the two once
// differed.
func TestFileProgramsAgree(t *testing.T) {
	r := newFileRig(t)
	a := []string{"a"}
	written := []struct {
		name string
		prog []fileOp
	}{
		{"client sequence", []fileOp{
			{kind: opMkdir, name: "dir"},
			{kind: opCreateExcl, name: "file"},
			{kind: opWrite, name: "file", n: 5000, fill: 'n'},
			{kind: opRead, name: "file", n: 5000},
			{kind: opReadDir},
		}},
		{"rmdir of a non-empty directory", []fileOp{
			{kind: opMkdir, name: "a"},
			{kind: opCreate, dir: a, name: "b"},
			{kind: opRmdir, name: "a"},
			{kind: opUnlink, dir: a, name: "b"},
			{kind: opRmdir, name: "a"},
		}},
		{"rename onto the same link", []fileOp{
			{kind: opCreate, name: "a"},
			{kind: opWrite, name: "a", n: 100, fill: 1},
			{kind: opRename, name: "a", name2: "a"},
			{kind: opRead, name: "a", n: 100},
		}},
		{"empty write past EOF", []fileOp{
			{kind: opCreate, name: "a"},
			{kind: opWrite, name: "a", off: 2304},
			{kind: opLookup, name: "a"},
		}},
		{"dot as a name", []fileOp{
			{kind: opMkdir, name: "a"},
			{kind: opLookup, dir: a, name: "."},
			{kind: opRmdir, dir: a, name: "."},
			{kind: opCreate, dir: a, name: "."},
			{kind: opRename, dir: a, name: "b", name2: ".."},
			{kind: opReadDir, dir: a},
		}},
	}
	for _, w := range written {
		if err := runProgram(r, w.prog); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
	for seed := int64(1); seed <= fixedSeeds; seed++ {
		if err := runProgram(r, decodeProgram(seedProgram(seed))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzFileProgram searches for a program on which FFS and bmfs differ:
//
//	go test ./internal/netbsd/fs/ -run '^$' -fuzz '^FuzzFileProgram$'
func FuzzFileProgram(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seedProgram(seed))
	}
	r := newFileRig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runProgram(r, decodeProgram(data)); err != nil {
			t.Fatal(err)
		}
	})
}
