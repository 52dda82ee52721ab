package bsdnet

// Regression tests for storage leaks on the mbuf hot paths: a second
// MCLGET on an mbuf that already carries storage must release what it
// replaces (cluster reference, foreign-owner reference, or small-block
// storage), and the cluster reference-count table must follow addresses
// in both directions.  The leak tests fail against the pre-fix MClGet,
// which overwrote the old storage pointers without releasing them.

import (
	"strings"
	"testing"

	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/kern"
	"oskit/internal/stats"
)

// bareStack boots a driverless stack for mbuf/sockbuf unit tests: a
// machine, the kernel library, the BSD glue, nothing else.
func bareStack(t *testing.T) *Stack {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "mbuf", MemBytes: 16 << 20})
	t.Cleanup(m.Halt)
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStack(bsdglue.New(k.Env))
	t.Cleanup(s.Close)
	return s
}

// stat reads one counter from the stack's com.Stats export.
func stat(t testing.TB, s *Stack, name string) int64 {
	t.Helper()
	v, ok := stats.Get(s.StatsSet().Snapshot(), name)
	if !ok {
		t.Fatalf("statistic %q not exported", name)
	}
	return v
}

// statDump renders the stack's non-zero rows for failure messages.
func statDump(s *Stack) string {
	var b strings.Builder
	stats.WriteTable(&b, []com.Stats{s.StatsSet()}, true)
	return b.String()
}

func TestMClGetReleasesPriorCluster(t *testing.T) {
	s := bareStack(t)
	g := s.Glue()
	base := g.Malloc.LiveBytes()

	m := s.MGet()
	if m == nil || !m.MClGet() {
		t.Fatal("setup allocation failed")
	}
	first := m.storeAddr
	if n := s.clRefCount(first); n != 1 {
		t.Fatalf("fresh cluster refcount = %d, want 1", n)
	}

	if !m.MClGet() {
		t.Fatal("second MCLGET failed")
	}
	second := m.storeAddr
	if second == first {
		t.Fatal("second MCLGET did not attach a fresh cluster")
	}
	if n := s.clRefCount(first); n != 0 {
		t.Fatalf("replaced cluster refcount = %d, want 0: the old cluster leaked", n)
	}
	if n := s.clRefCount(second); n != 1 {
		t.Fatalf("new cluster refcount = %d, want 1", n)
	}
	if got := stat(t, s, "mbuf.cluster_frees"); got != 1 {
		t.Fatalf("mbuf.cluster_frees = %d after replacement, want 1", got)
	}

	m.Free()
	if live := g.Malloc.LiveBytes(); live != base {
		t.Fatalf("live bytes %d != %d before the test: storage leaked", live, base)
	}
	if got := stat(t, s, "mbuf.cluster_allocs"); got != 2 {
		t.Fatalf("mbuf.cluster_allocs = %d, want 2", got)
	}
}

func TestMClGetReleasesSmallStorage(t *testing.T) {
	s := bareStack(t)
	g := s.Glue()
	base := g.Malloc.LiveBytes()

	m := s.MGet()
	if m == nil || !m.MClGet() {
		t.Fatal("setup allocation failed")
	}
	// The MSIZE block the mbuf was born with must have gone back to the
	// allocator when the cluster took over.
	if got, want := g.Malloc.LiveBytes(), base+MCLBYTES; got != want {
		t.Fatalf("live bytes %d != %d: the replaced small block leaked", got, want)
	}
	m.Free()
	if live := g.Malloc.LiveBytes(); live != base {
		t.Fatalf("live bytes %d != %d before the test", live, base)
	}
}

func TestMClGetReleasesForeignOwner(t *testing.T) {
	s := bareStack(t)
	buf := make([]byte, 256)
	owner := com.NewMemBuf(buf)
	defer owner.Release()

	m := s.MExt(owner, buf[:100])
	if owner.Refs() != 2 {
		t.Fatalf("owner refs = %d after MExt, want 2", owner.Refs())
	}
	if !m.MClGet() {
		t.Fatal("MCLGET failed")
	}
	if owner.Refs() != 1 {
		t.Fatalf("owner refs = %d after cluster replacement, want 1: the foreign reference leaked", owner.Refs())
	}
	m.Free()
	if owner.Refs() != 1 {
		t.Fatalf("owner refs = %d after Free, want 1", owner.Refs())
	}
}

func TestClRefTableGrowsBothDirections(t *testing.T) {
	s := bareStack(t)
	// Synthetic cluster-aligned addresses, referenced mid first, then
	// descending (the table must re-base toward the front), then
	// ascending (it must extend toward the back).  Increments only: a
	// decrement reaching zero would hand the address to the allocator,
	// which never issued it.
	mid := hw.PhysAddr(8 << 20)
	addrs := []hw.PhysAddr{
		mid,
		mid - 64*MCLBYTES,
		mid - 200*MCLBYTES,
		mid + 32*MCLBYTES,
		mid + 300*MCLBYTES,
	}
	for _, a := range addrs {
		s.clRef(a, +1)
	}
	s.clRef(mid, +1)

	if n := s.clRefCount(mid); n != 2 {
		t.Fatalf("refcount(mid) = %d, want 2", n)
	}
	for _, a := range addrs[1:] {
		if n := s.clRefCount(a); n != 1 {
			t.Fatalf("refcount(%#x) = %d, want 1: count lost across a table re-grow", a, n)
		}
	}
	// In-range but never-referenced addresses must read zero.
	for _, a := range []hw.PhysAddr{mid - MCLBYTES, mid + MCLBYTES, mid - 199*MCLBYTES} {
		if n := s.clRefCount(a); n != 0 {
			t.Fatalf("refcount(%#x) = %d, want 0: counts smeared across a re-grow", a, n)
		}
	}
}
