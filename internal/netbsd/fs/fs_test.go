package netbsdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"oskit/internal/com"
	"oskit/internal/core"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/lmm"
)

// ramDisk formats a memory-backed BlkIO (unit tests run without the IDE
// driver; the integration test in the examples drives the real one —
// run-time binding means the FS cannot tell).
func ramDisk(t testing.TB, blocks uint32) (*bsdglue.Glue, com.BlkIO) {
	t.Helper()
	g := testGlue(t)
	dev := com.NewMemBuf(make([]byte, blocks*BlockSize))
	if err := Mkfs(dev, 0); err != nil {
		t.Fatal(err)
	}
	return g, dev
}

// testGlue boots a machine and returns a BSD environment on it, the
// one the file system's product mount runs on.
func testGlue(t testing.TB) *bsdglue.Glue {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 16 << 20})
	t.Cleanup(m.Halt)
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x100000, 8<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	arena.AddFree(0x100000, 8<<20)
	return bsdglue.New(core.NewEnv(m, arena))
}

// entered runs fn the way a component entry runs its body: with a
// current process and c's component lock held, which every sleep and
// device call under fn drops while it blocks.
func entered(c *bcache, fn func()) {
	defer c.g.Enter("test")()
	c.mu.Enter()
	defer c.mu.Leave()
	fn()
}

func mountTest(t *testing.T, blocks uint32) *FFS {
	t.Helper()
	g, dev := ramDisk(t, blocks)
	fs, err := Mount(g, dev)
	if err != nil {
		t.Fatal(err)
	}
	dev.Release() // the mount holds its own reference
	return fs
}

func TestMkfsAndMount(t *testing.T) {
	fs := mountTest(t, 512)
	st, err := fs.StatFS()
	if err != nil {
		t.Fatal(err)
	}
	if st.BlockSize != BlockSize || st.TotalBlocks != 512 {
		t.Fatalf("StatFS = %+v", st)
	}
	if st.FreeBlocks == 0 || st.FreeFiles == 0 {
		t.Fatalf("no free space: %+v", st)
	}
	root, err := fs.GetRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer root.Release()
	rst, _ := root.GetStat()
	if rst.Ino != RootIno || rst.Mode&com.ModeIFMT != com.ModeIFDIR {
		t.Fatalf("root stat = %+v", rst)
	}
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fresh fs dirty: %v", errs)
	}
	// Mounting garbage fails.
	bad := com.NewMemBuf(make([]byte, 64*BlockSize))
	if _, err := Mount(fs.g, bad); err == nil {
		t.Fatal("mounted an unformatted device")
	}
}

func TestCreateWriteReadPersists(t *testing.T) {
	g, dev := ramDisk(t, 1024)
	fs, err := Mount(g, dev)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := fs.GetRoot()
	f, err := root.Create("data", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	// Big enough to use single AND double indirect blocks:
	// 8 KiB direct + 256 KiB indirect, so 300 KiB spills into double.
	payload := make([]byte, 300*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if n, err := f.WriteAt(payload, 0); err != nil || n != uint(len(payload)) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	st, _ := f.GetStat()
	if st.Size != uint64(len(payload)) {
		t.Fatalf("size = %d", st.Size)
	}
	f.Release()
	root.Release()
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck after write: %v", errs)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	// Remount from the same device: data must have persisted.
	fs2, err := Mount(g, dev)
	if err != nil {
		t.Fatal(err)
	}
	root2, _ := fs2.GetRoot()
	defer root2.Release()
	f2, err := root2.Lookup("data")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Release()
	got := make([]byte, len(payload))
	var off uint64
	for off < uint64(len(payload)) {
		n, err := f2.ReadAt(got[off:], off)
		if err != nil || n == 0 {
			t.Fatalf("ReadAt at %d = %d, %v", off, n, err)
		}
		off += uint64(n)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted across remount")
	}
}

func TestTruncateReclaimsSpace(t *testing.T) {
	fs := mountTest(t, 1024)
	root, _ := fs.GetRoot()
	defer root.Release()
	f, _ := root.Create("big", 0o644, true)
	defer f.Release()
	st0, _ := fs.StatFS()
	if _, err := f.WriteAt(make([]byte, 100*1024), 0); err != nil {
		t.Fatal(err)
	}
	st1, _ := fs.StatFS()
	if st1.FreeBlocks >= st0.FreeBlocks {
		t.Fatal("write consumed no blocks")
	}
	if err := f.SetSize(0); err != nil {
		t.Fatal(err)
	}
	st2, _ := fs.StatFS()
	if st2.FreeBlocks != st0.FreeBlocks {
		t.Fatalf("truncate reclaimed %d of %d blocks",
			st2.FreeBlocks-st1.FreeBlocks, st0.FreeBlocks-st1.FreeBlocks)
	}
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck after truncate: %v", errs)
	}
}

func TestSparseFileHoles(t *testing.T) {
	fs := mountTest(t, 1024)
	root, _ := fs.GetRoot()
	defer root.Release()
	f, _ := root.Create("sparse", 0o644, true)
	defer f.Release()
	// Write one byte far out: everything before reads back as zeros.
	if _, err := f.WriteAt([]byte{0xEE}, 50*1024); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := f.ReadAt(buf, 20*1024)
	if err != nil || n != 4096 {
		t.Fatalf("hole read = %d, %v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero-filled")
		}
	}
	n, _ = f.ReadAt(buf[:1], 50*1024)
	if n != 1 || buf[0] != 0xEE {
		t.Fatal("payload byte lost")
	}
}

func TestDirectoryOps(t *testing.T) {
	fs := mountTest(t, 512)
	root, _ := fs.GetRoot()
	defer root.Release()
	if err := root.Mkdir("sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("sub", 0o755); err != com.ErrExist {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	subF, err := root.Lookup("sub")
	if err != nil {
		t.Fatal(err)
	}
	subQ, err := subF.QueryInterface(com.DirIID)
	if err != nil {
		t.Fatal("subdirectory does not answer for Dir")
	}
	sub := subQ.(com.Dir)
	defer sub.Release()
	subF.Release()

	if _, err := sub.Create("f1", 0o644, true); err != nil {
		t.Fatal(err)
	}
	// Single-component rule.
	if _, err := root.Lookup("sub/f1"); err != com.ErrInval {
		t.Fatalf("multi-component lookup: %v", err)
	}
	if _, err := root.Lookup(".."); err != com.ErrInval {
		t.Fatalf("dotdot lookup: %v", err)
	}
	// Rmdir of a non-empty directory fails.
	if err := root.Rmdir("sub"); err != com.ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	ents, err := sub.ReadDir(0, 0)
	if err != nil || len(ents) != 1 || ents[0].Name != "f1" {
		t.Fatalf("ReadDir = %+v, %v", ents, err)
	}
	if err := sub.Unlink("f1"); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unlink("f1"); err != com.ErrNoEnt {
		t.Fatalf("double unlink: %v", err)
	}
	if err := root.Rmdir("sub"); err != nil {
		t.Fatal(err)
	}
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck: %v", errs)
	}
}

func TestRenameWithinAndAcross(t *testing.T) {
	fs := mountTest(t, 512)
	root, _ := fs.GetRoot()
	defer root.Release()
	_ = root.Mkdir("d1", 0o755)
	_ = root.Mkdir("d2", 0o755)
	d1 := lookupDir(t, root, "d1")
	defer d1.Release()
	d2 := lookupDir(t, root, "d2")
	defer d2.Release()
	f, _ := d1.Create("file", 0o644, true)
	if _, err := f.WriteAt([]byte("contents"), 0); err != nil {
		t.Fatal(err)
	}
	f.Release()
	// Same-directory rename.
	if err := d1.Rename("file", d1, "renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Lookup("file"); err != com.ErrNoEnt {
		t.Fatal("old name survived same-dir rename")
	}
	// Cross-directory rename.
	if err := d1.Rename("renamed", d2, "moved"); err != nil {
		t.Fatal(err)
	}
	got, err := d2.Lookup("moved")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := got.ReadAt(buf, 0)
	if string(buf[:n]) != "contents" {
		t.Fatalf("contents after rename = %q", buf[:n])
	}
	got.Release()
	// Rename over an existing file replaces it.
	f2, _ := d2.Create("victim", 0o644, true)
	f2.Release()
	if err := d2.Rename("moved", d2, "victim"); err != nil {
		t.Fatal(err)
	}
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck after renames: %v", errs)
	}
}

func TestOutOfSpace(t *testing.T) {
	fs := mountTest(t, 64) // tiny device
	root, _ := fs.GetRoot()
	defer root.Release()
	f, err := root.Create("hog", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	_, werr := f.WriteAt(make([]byte, 1<<20), 0)
	if werr == nil {
		t.Fatal("writing 1 MiB to a 64 KiB device succeeded")
	}
	// The file system survives: fsck clean and further ops fine.
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck after ENOSPC: %v", errs)
	}
	if _, err := root.Create("small", 0o644, true); err != nil {
		t.Fatalf("create after ENOSPC: %v", err)
	}
}

// Property: a random sequence of file operations agrees with an in-memory
// model, and fsck stays clean throughout.
func TestFSModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fs := mountTest(t, 2048)
	root, _ := fs.GetRoot()
	defer root.Release()
	model := map[string][]byte{}
	names := []string{"a", "b", "c", "d", "e"}

	for step := 0; step < 300; step++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0: // write at random offset
			f, err := root.Create(name, 0o644, false)
			if err != nil {
				t.Fatalf("step %d create: %v", step, err)
			}
			data := make([]byte, rng.Intn(3000)+1)
			rng.Read(data)
			off := uint64(rng.Intn(10000))
			if _, err := f.WriteAt(data, off); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			cur := model[name]
			if need := int(off) + len(data); need > len(cur) {
				grown := make([]byte, need)
				copy(grown, cur)
				cur = grown
			}
			copy(cur[off:], data)
			model[name] = cur
			f.Release()
		case 1: // truncate
			if _, ok := model[name]; !ok {
				continue
			}
			f, err := root.Lookup(name)
			if err != nil {
				t.Fatalf("step %d lookup: %v", step, err)
			}
			size := uint64(rng.Intn(8000))
			if err := f.SetSize(size); err != nil {
				t.Fatalf("step %d truncate: %v", step, err)
			}
			cur := model[name]
			if int(size) <= len(cur) {
				model[name] = cur[:size]
			} else {
				grown := make([]byte, size)
				copy(grown, cur)
				model[name] = grown
			}
			f.Release()
		case 2: // unlink
			if _, ok := model[name]; !ok {
				continue
			}
			if err := root.Unlink(name); err != nil {
				t.Fatalf("step %d unlink: %v", step, err)
			}
			delete(model, name)
		case 3: // verify one file fully
			if _, ok := model[name]; !ok {
				if _, err := root.Lookup(name); err != com.ErrNoEnt {
					t.Fatalf("step %d: deleted file present: %v", step, err)
				}
				continue
			}
			f, err := root.Lookup(name)
			if err != nil {
				t.Fatalf("step %d lookup: %v", step, err)
			}
			want := model[name]
			st, _ := f.GetStat()
			if st.Size != uint64(len(want)) {
				t.Fatalf("step %d: size %d, model %d", step, st.Size, len(want))
			}
			got := make([]byte, len(want))
			var off uint64
			for off < uint64(len(want)) {
				n, err := f.ReadAt(got[off:], off)
				if err != nil {
					t.Fatalf("step %d read: %v", step, err)
				}
				if n == 0 {
					break
				}
				off += uint64(n)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: contents diverge for %q", step, name)
			}
			f.Release()
		}
	}
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck after model run: %v", errs)
	}
	// And the cache flushes cleanly.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

func lookupDir(t *testing.T, d com.Dir, name string) com.Dir {
	t.Helper()
	f, err := d.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	q, err := f.QueryInterface(com.DirIID)
	f.Release()
	if err != nil {
		t.Fatalf("%s not a directory", name)
	}
	return q.(com.Dir)
}

func TestManyFilesDirectoryGrowth(t *testing.T) {
	fs := mountTest(t, 2048)
	root, _ := fs.GetRoot()
	defer root.Release()
	// Enough entries to grow the directory past one block.
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("file%02d", i)
		f, err := root.Create(name, 0o644, true)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := f.WriteAt([]byte(name), 0); err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	ents, err := root.ReadDir(0, 0)
	if err != nil || len(ents) != 40 {
		t.Fatalf("ReadDir = %d entries, %v", len(ents), err)
	}
	// Paged reads.
	page, err := root.ReadDir(10, 5)
	if err != nil || len(page) != 5 {
		t.Fatalf("paged ReadDir = %+v, %v", page, err)
	}
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck: %v", errs)
	}
}

// TestTruncateZeroesTail: POSIX requires that bytes between a shrunken
// size and a later regrowth read as zero; a lazy truncate that keeps
// the final partial block's old bytes leaks them.
func TestTruncateZeroesTail(t *testing.T) {
	fs := mountTest(t, 512)
	root, _ := fs.GetRoot()
	defer root.Release()
	f, _ := root.Create("tail", 0o644, true)
	defer f.Release()
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAA}, 3000), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.SetSize(100); err != nil {
		t.Fatal(err)
	}
	// Grow past the old contents with a sparse write.
	if _, err := f.WriteAt([]byte{0xBB}, 5000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2900)
	if _, err := f.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("stale byte %#x at offset %d after truncate+regrow", b, 100+i)
		}
	}
}
