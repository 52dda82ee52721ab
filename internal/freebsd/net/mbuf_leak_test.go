package bsdnet

// Regression tests for storage leaks on the mbuf hot paths: a second
// MCLGET on an mbuf that already carries storage must release what it
// replaces (cluster reference or foreign-owner reference) while the
// header keeps its own block, and the cluster reference-count table must
// follow addresses in both directions.  The leak tests fail against the
// pre-fix MClGet, which overwrote the old storage pointers without
// releasing them.  What is freed is parked on the stack's free lists, so
// the ledger is the BSD malloc's live bytes less what those hold.

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

// freeListBytes is what the stack's free lists hold of the BSD
// malloc's live bytes: every MSIZE block and cluster parked for reuse.
func freeListBytes(t testing.TB, s *Stack) uint64 {
	t.Helper()
	return uint64(stat(t, s, "mbuf.free")*MSIZE + stat(t, s, "mbuf.cluster_free")*MCLBYTES)
}

// checkLedger asserts that everything the test built went back: the BSD
// malloc holds base plus what the free lists keep, and every mbuf
// constructed was freed.
func checkLedger(t *testing.T, s *Stack, base uint64) {
	t.Helper()
	if live, held := s.Glue().Malloc.LiveBytes(), freeListBytes(t, s); live != base+held {
		t.Fatalf("malloc live bytes %d != %d before the test + %d on the free lists: storage leaked", live, base, held)
	}
	if a, f := stat(t, s, "mbuf.allocs"), stat(t, s, "mbuf.frees"); a != f {
		t.Fatalf("mbuf.allocs %d != mbuf.frees %d", a, f)
	}
}

// drainFreeLists hands every block and cluster the free lists hold back
// to the BSD malloc, so an exhaustion test sees only the memory it
// primed.
func drainFreeLists(s *Stack) {
	var addrs []vmOffset
	s.freeMu.Lock()
	for m := s.mbufFree; m != nil; m = m.Next {
		if m.blk != nil {
			addrs = append(addrs, m.blkAddr)
			m.blk, m.blkAddr = nil, 0
		}
	}
	s.sc.mbufFree.Set(0)
	for _, cl := range s.mclFree {
		addrs = append(addrs, cl.addr)
	}
	s.mclFree = s.mclFree[:0]
	s.sc.clFree.Set(0)
	s.freeMu.Unlock()
	for _, a := range addrs {
		s.g.Malloc.Free(a)
	}
}

func TestMClGetReleasesPriorCluster(t *testing.T) {
	s := bareStack(t)
	base := s.Glue().Malloc.LiveBytes()

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
	if got := stat(t, s, "mbuf.cluster_free"); got != 1 {
		t.Fatalf("mbuf.cluster_free = %d after replacement, want the old cluster parked", got)
	}

	m.Free()
	checkLedger(t, s, base)
	if got := stat(t, s, "mbuf.cluster_allocs"); got != 2 {
		t.Fatalf("mbuf.cluster_allocs = %d, want 2", got)
	}
}

// TestMClGetReleasesSmallStorage: the MSIZE block an mbuf was born with
// stays with its header across MCLGET and goes back with it to the free
// list, where the next MGET finds it without asking the allocator.
func TestMClGetReleasesSmallStorage(t *testing.T) {
	s := bareStack(t)
	g := s.Glue()
	base := g.Malloc.LiveBytes()

	m := s.MGet()
	if m == nil || !m.MClGet() {
		t.Fatal("setup allocation failed")
	}
	if got, want := g.Malloc.LiveBytes(), base+MSIZE+MCLBYTES; got != want {
		t.Fatalf("live bytes %d != %d: header block plus cluster", got, want)
	}
	m.Free()
	checkLedger(t, s, base)
	if got := stat(t, s, "mbuf.free"); got != 1 {
		t.Fatalf("mbuf.free = %d after Free, want the header's block parked", got)
	}

	allocs := g.Malloc.LiveBytes()
	if m = s.MGet(); m == nil {
		t.Fatal("MGET from the free list failed")
	}
	if got := g.Malloc.LiveBytes(); got != allocs {
		t.Fatalf("live bytes %d != %d: MGET asked the allocator with a block on the free list", got, allocs)
	}
	m.Free()
	checkLedger(t, s, base)
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
		s.clRef(a, nil, +1)
	}
	s.clRef(mid, nil, +1)

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

// TestFreeListReusesStorage: a freed mbuf keeps its block and a freed
// cluster goes on the cluster free list, so the next MGET and MCLGET are
// served from the lists without the BSD malloc.
func TestFreeListReusesStorage(t *testing.T) {
	s := bareStack(t)
	base := s.Glue().Malloc.LiveBytes()
	m := s.MGet()
	if m == nil || !m.MClGet() {
		t.Fatal("setup allocation failed")
	}
	blk, cl := m.blkAddr, m.storeAddr
	m.Free()
	if got := stat(t, s, "mbuf.cluster_free"); got != 1 {
		t.Fatalf("mbuf.cluster_free = %d after Free, want 1", got)
	}
	mallocs := stat(t, s, "mbuf.cluster_allocs")
	live := s.Glue().Malloc.LiveBytes()

	m = s.MGet()
	if m == nil || !m.MClGet() {
		t.Fatal("allocation from the free lists failed")
	}
	if m.blkAddr != blk || m.storeAddr != cl {
		t.Fatalf("got block %#x cluster %#x, want the freed %#x and %#x back", m.blkAddr, m.storeAddr, blk, cl)
	}
	if got := s.Glue().Malloc.LiveBytes(); got != live {
		t.Fatalf("malloc live bytes %d != %d: the free lists were bypassed", got, live)
	}
	if n := s.clRefCount(cl); n != 1 {
		t.Fatalf("recycled cluster refcount = %d, want 1", n)
	}
	if got := stat(t, s, "mbuf.cluster_allocs"); got != mallocs+1 {
		t.Fatalf("mbuf.cluster_allocs = %d, want %d: a recycled cluster is still an MCLGET", got, mallocs+1)
	}
	m.Free()
	checkLedger(t, s, base)
}

// TestFreeListRecycledExport: a header comes back off the free list with
// its embedded BufIO export, which must start every life at one
// reference.  Under -tags oskitrefdebug the ledger remembers the last
// life's final Release, so a reuse that skipped re-initialising it
// panics on the next AddRef.
func TestFreeListRecycledExport(t *testing.T) {
	s := bareStack(t)
	base := s.Glue().Malloc.LiveBytes()
	first := s.MGetHdr()
	first.Free()
	for life := 0; life < 3; life++ {
		m := s.MGetHdr()
		if m != first {
			t.Fatalf("life %d: the free list handed out a different header", life)
		}
		if !m.Append([]byte("frame")) {
			t.Fatal("append failed")
		}
		bio := s.wrapMbuf(m)
		if n := bio.Refs(); n != 1 {
			t.Fatalf("life %d: export starts at %d references, want 1", life, n)
		}
		obj, err := bio.QueryInterface(com.BufIOIID)
		if err != nil {
			t.Fatal(err)
		}
		obj.Release()
		bio.Release() // the last reference frees the chain
		if a, f := stat(t, s, "mbuf.allocs"), stat(t, s, "mbuf.frees"); a != f {
			t.Fatalf("life %d: mbuf.allocs %d != mbuf.frees %d after the export's last Release", life, a, f)
		}
	}
	checkLedger(t, s, base)
}
