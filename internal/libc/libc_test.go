package libc

import (
	"bytes"
	"strings"
	"testing"

	"oskit/internal/bmfs"
	"oskit/internal/com"
	"oskit/internal/core"
	"oskit/internal/hw"
	"oskit/internal/lmm"
)

func testC(t *testing.T) *C { return testCCPUs(t, 0) }

// testCCPUs is testC over a cpus-CPU machine (0: the platform default).
func testCCPUs(t *testing.T, cpus int) *C {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 8 << 20, CPUs: cpus})
	t.Cleanup(m.Halt)
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x100000, 4<<20, core.LMMFlagDMA, 0); err != nil {
		t.Fatal(err)
	}
	arena.AddFree(0x100000, 4<<20)
	return New(core.NewEnv(m, arena))
}

func TestPrintfBottomsOutInPutchar(t *testing.T) {
	c := testC(t)
	var out bytes.Buffer
	// The paper's headline property: provide only Putchar and formatted
	// output works (§4.3.1).
	c.Putchar = func(b byte) { out.WriteByte(b) }
	c.Printf("boot: %d modules, %s ready\n", 3, "console")
	if out.String() != "boot: 3 modules, console ready\n" {
		t.Fatalf("output = %q", out.String())
	}
}

func TestPrintfRoutesLinesThroughPuts(t *testing.T) {
	c := testC(t)
	var lines []string
	var raw bytes.Buffer
	c.Putchar = func(b byte) { raw.WriteByte(b) }
	c.Puts = func(s string) { lines = append(lines, s) }
	c.Printf("line one\nline two\ntail")
	if len(lines) != 2 || lines[0] != "line one" || lines[1] != "line two" {
		t.Fatalf("Puts saw %q", lines)
	}
	if raw.String() != "tail" {
		t.Fatalf("Putchar saw %q", raw.String())
	}
}

func TestMallocFreeRoundTrip(t *testing.T) {
	c := testC(t)
	addr, buf, ok := c.Malloc(100)
	if !ok || len(buf) != 100 {
		t.Fatalf("Malloc = %#x, %d bytes, %v", addr, len(buf), ok)
	}
	if size, ok := c.MallocSize(addr); !ok || size != 100 {
		t.Fatalf("MallocSize = %d, %v", size, ok)
	}
	buf[0], buf[99] = 1, 2
	// The slice aliases simulated physical memory.
	if c.Env().Machine.Mem.MustSlice(addr, 100)[99] != 2 {
		t.Fatal("Malloc slice does not alias machine memory")
	}
	c.Free(addr)
	c.Free(0) // free(NULL): no-op
}

func TestMallocDoubleFreeDetected(t *testing.T) {
	c := testC(t)
	addr, _, _ := c.Malloc(64)
	c.Free(addr)
	defer func() {
		if recover() == nil {
			t.Fatal("double free undetected")
		}
	}()
	c.Free(addr)
}

func TestCallocZeroes(t *testing.T) {
	c := testC(t)
	// Dirty some memory, free it, then calloc and check zeroing.
	addr, buf, _ := c.Malloc(256)
	for i := range buf {
		buf[i] = 0xFF
	}
	c.Free(addr)
	_, buf2, ok := c.Calloc(16, 16)
	if !ok {
		t.Fatal("Calloc failed")
	}
	for i, b := range buf2 {
		if b != 0 {
			t.Fatalf("Calloc memory dirty at %d: %#x", i, b)
		}
	}
	// Overflowing multiplication rejected.
	if _, _, ok := c.Calloc(1<<20, 1<<20); ok {
		t.Fatal("overflowing Calloc succeeded")
	}
}

func TestRealloc(t *testing.T) {
	c := testC(t)
	addr, buf, _ := c.Malloc(8)
	copy(buf, "12345678")
	addr2, buf2, ok := c.Realloc(addr, 16)
	if !ok || string(buf2[:8]) != "12345678" {
		t.Fatalf("Realloc lost data: %q", buf2[:8])
	}
	if _, ok := c.MallocSize(addr); ok {
		t.Fatal("old block still live after Realloc")
	}
	c.Free(addr2)
	// Realloc(0) behaves like Malloc.
	addr3, _, ok := c.Realloc(0, 32)
	if !ok {
		t.Fatal("Realloc(0) failed")
	}
	c.Free(addr3)
}

func TestMallocDMAFlag(t *testing.T) {
	c := testC(t)
	addr, _, ok := c.MallocDMA(128)
	if !ok || addr >= hw.DMALimit {
		t.Fatalf("MallocDMA = %#x, %v", addr, ok)
	}
	c.Free(addr)
}

func TestQuickPool(t *testing.T) {
	c := testC(t)
	p := NewQuickPool(c)
	// Small allocations round-trip and recycle.
	a1, b1, ok := p.Alloc(24)
	if !ok || len(b1) != 24 {
		t.Fatalf("Alloc = %v len %d", ok, len(b1))
	}
	p.Free(a1, 24)
	a2, _, _ := p.Alloc(24)
	if a2 != a1 {
		t.Fatalf("freed block not recycled: %#x vs %#x", a2, a1)
	}
	slabs1, _ := p.Stats()
	// A burst within one slab must not allocate more slabs.
	var addrs []hw.PhysAddr
	for i := 0; i < slabBlocks-1; i++ {
		a, _, ok := p.Alloc(24)
		if !ok {
			t.Fatal("pool alloc failed")
		}
		addrs = append(addrs, a)
	}
	slabs2, _ := p.Stats()
	if slabs2 != slabs1 {
		t.Fatalf("burst within slab allocated %d new slabs", slabs2-slabs1)
	}
	for _, a := range addrs {
		p.Free(a, 24)
	}
	// Large allocations fall through to malloc.
	aBig, bufBig, ok := p.Alloc(10000)
	if !ok || len(bufBig) != 10000 {
		t.Fatal("large Alloc failed")
	}
	if _, ok := c.MallocSize(aBig); !ok {
		t.Fatal("large allocation did not come from Malloc")
	}
	p.Free(aBig, 10000)
}

func mountTestFS(t *testing.T, c *C) *bmfs.FS {
	t.Helper()
	fs := bmfs.New(nil)
	root, err := fs.GetRoot()
	if err != nil {
		t.Fatal(err)
	}
	c.SetRoot(root)
	root.Release()
	return fs
}

func TestOpenReadWriteSeekClose(t *testing.T) {
	c := testC(t)
	mountTestFS(t, c)
	fd, err := c.Open("/etc/fstab", OWrOnly|OCreat, 0o644)
	if err == nil {
		t.Fatal("creating under a missing directory should fail")
	}
	if err := c.Mkdir("/etc", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err = c.Open("/etc/fstab", ORdWr|OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Write(fd, []byte("root on sd0")); err != nil || n != 11 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if _, err := c.Lseek(fd, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := c.Read(fd, buf)
	if err != nil || string(buf[:n]) != "root on sd0" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	// SeekEnd and SeekCur.
	pos, err := c.Lseek(fd, -3, SeekEnd)
	if err != nil || pos != 8 {
		t.Fatalf("Lseek end = %d, %v", pos, err)
	}
	n, _ = c.Read(fd, buf)
	if string(buf[:n]) != "sd0" {
		t.Fatalf("tail = %q", buf[:n])
	}
	if _, err := c.Lseek(fd, -100, SeekCur); err != com.ErrInval {
		t.Fatalf("negative seek: %v", err)
	}
	st, err := c.Fstat(fd)
	if err != nil || st.Size != 11 {
		t.Fatalf("Fstat = %+v, %v", st, err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != com.ErrBadF {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenFlagsSemantics(t *testing.T) {
	c := testC(t)
	mountTestFS(t, c)
	if err := c.WriteFile("/f", []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	// O_EXCL on existing file.
	if _, err := c.Open("/f", OWrOnly|OCreat|OExcl, 0o644); err != com.ErrExist {
		t.Fatalf("O_EXCL: %v", err)
	}
	// O_TRUNC empties.
	fd, err := c.Open("/f", OWrOnly|OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close(fd)
	if st, _ := c.Stat("/f"); st.Size != 0 {
		t.Fatalf("O_TRUNC left %d bytes", st.Size)
	}
	// O_APPEND writes at EOF regardless of seeks.
	fd, _ = c.Open("/f", OWrOnly|OAppend, 0)
	_, _ = c.Write(fd, []byte("aa"))
	_, _ = c.Lseek(fd, 0, SeekSet)
	_, _ = c.Write(fd, []byte("bb"))
	_ = c.Close(fd)
	data, _ := c.ReadFile("/f")
	if string(data) != "aabb" {
		t.Fatalf("O_APPEND contents = %q", data)
	}
	// Opening a directory for writing fails; reading gives a dir fd.
	if _, err := c.Open("/", OWrOnly, 0); err != com.ErrIsDir {
		t.Fatalf("write-open dir: %v", err)
	}
	fd, err = c.Open("/", ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(fd, make([]byte, 4)); err != com.ErrIsDir {
		t.Fatalf("read on dir fd: %v", err)
	}
	st, err := c.Fstat(fd)
	if err != nil || st.Mode&com.ModeIFMT != com.ModeIFDIR {
		t.Fatalf("dir Fstat = %+v, %v", st, err)
	}
	_ = c.Close(fd)
}

func TestPathOps(t *testing.T) {
	c := testC(t)
	mountTestFS(t, c)
	if err := c.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("/a/b/file", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ents, err := c.ListDir("/a/b")
	if err != nil || len(ents) != 1 || ents[0].Name != "file" {
		t.Fatalf("ListDir = %+v, %v", ents, err)
	}
	if err := c.Rename("/a/b/file", "/a/file2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/a/b/file"); err != com.ErrNoEnt {
		t.Fatalf("stat after rename: %v", err)
	}
	if err := c.Truncate("/a/file2", 10); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stat("/a/file2")
	if st.Size != 10 {
		t.Fatalf("after truncate: %d", st.Size)
	}
	if err := c.Rmdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/a/file2"); err != nil {
		t.Fatal(err)
	}
	// Path through a file is ENOTDIR.
	if err := c.WriteFile("/plain", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/plain/sub"); err != com.ErrNotDir {
		t.Fatalf("path through file: %v", err)
	}
	// No root mounted.
	c.SetRoot(nil)
	if _, err := c.Stat("/x"); err != com.ErrNoEnt {
		t.Fatalf("no root: %v", err)
	}
}

func TestDupSharesObjectNotOffset(t *testing.T) {
	c := testC(t)
	mountTestFS(t, c)
	if err := c.WriteFile("/f", []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	fd, _ := c.Open("/f", ORdOnly, 0)
	buf := make([]byte, 3)
	_, _ = c.Read(fd, buf)
	fd2, err := c.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	// The dup starts at the duplicated offset but advances independently.
	n, _ := c.Read(fd2, buf)
	if string(buf[:n]) != "def" {
		t.Fatalf("dup read = %q", buf[:n])
	}
	n, _ = c.Read(fd, buf)
	if string(buf[:n]) != "def" {
		t.Fatalf("original read = %q", buf[:n])
	}
	_ = c.Close(fd)
	_ = c.Close(fd2)
}

func TestStdio(t *testing.T) {
	c := testC(t)
	stream := &stubStream{}
	stream.Init()
	c.SetStdio(stream)
	if n, err := c.Write(1, []byte("out")); err != nil || n != 3 {
		t.Fatalf("Write(1) = %d, %v", n, err)
	}
	if stream.wrote.String() != "out" {
		t.Fatalf("stdout captured %q", stream.wrote.String())
	}
	stream.toRead = []byte("in")
	buf := make([]byte, 8)
	n, err := c.Read(0, buf)
	if err != nil || string(buf[:n]) != "in" {
		t.Fatalf("Read(0) = %q, %v", buf[:n], err)
	}
}

type stubStream struct {
	com.RefCount
	wrote  bytes.Buffer
	toRead []byte
}

func (s *stubStream) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	if iid == com.UnknownIID || iid == com.StreamIID {
		s.AddRef()
		return s, nil
	}
	return nil, com.ErrNoInterface
}

func (s *stubStream) Read(buf []byte) (uint, error) {
	n := copy(buf, s.toRead)
	s.toRead = s.toRead[n:]
	return uint(n), nil
}

func (s *stubStream) Write(buf []byte) (uint, error) {
	s.wrote.Write(buf)
	return uint(len(buf)), nil
}

func TestGetRUsage(t *testing.T) {
	c := testC(t)
	ticks0, nanos := c.GetRUsage()
	if nanos != core.DefaultTickNanos {
		t.Fatalf("tick duration = %d", nanos)
	}
	c.Env().Clock().Tick()
	ticks1, _ := c.GetRUsage()
	if ticks1 != ticks0+1 {
		t.Fatalf("ticks did not advance: %d -> %d", ticks0, ticks1)
	}
}

func TestSprintfUsedByPrintfHasNoBuffering(t *testing.T) {
	// Regression guard for the "no buffering" documented property: every
	// Putchar lands before Printf returns.
	c := testC(t)
	var got []byte
	c.Putchar = func(b byte) { got = append(got, b) }
	c.Printf("x=%d", 5)
	if string(got) != "x=5" {
		t.Fatalf("output after return = %q", got)
	}
	_ = strings.TrimSpace("")
}
