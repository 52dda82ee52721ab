package bsdnet

// Socket-buffer unit tests: the appendData failure path must not leave a
// partially built chain attached (a leak plus a wedged empty-but-non-nil
// buffer), and drop/read must keep cc, the chain shape, and PktLen
// consistent across the edge cases TCP ack processing actually hits.

import (
	"bytes"
	"testing"

	"oskit/internal/core"
	"oskit/internal/hw"
)

func chainLinks(m *Mbuf) int {
	n := 0
	for ; m != nil; m = m.Next {
		n++
	}
	return n
}

// TestSockbufAppendFailureReleasesFreshChain reproduces a transient
// allocation failure mid-append: the header mbuf and its first cluster
// allocate fine, then the chain-grow path inside Append runs out of
// memory.  The failed append must release everything it built.  Fails
// against the pre-fix appendData, which left the empty header chain
// attached to sb.head.
func TestSockbufAppendFailureReleasesFreshChain(t *testing.T) {
	s := bareStack(t)
	g := s.Glue()

	// Prime the allocator's free lists so the failure lands exactly one
	// cluster into the append: a page of small blocks, and exactly one
	// free cluster block (clB stays allocated so the bucket holds one).
	// The stack's own free lists hand back what they hold first.
	drainFreeLists(s)
	clA, _, okA := g.Malloc.Alloc(MCLBYTES)
	clB, _, okB := g.Malloc.Alloc(MCLBYTES)
	small, _, okS := g.Malloc.Alloc(MSIZE)
	if !okA || !okB || !okS {
		t.Fatal("priming allocations failed")
	}
	g.Malloc.Free(small)
	g.Malloc.Free(clA)
	defer g.Malloc.Free(clB)

	// From here on the client has no more memory to give: bucket refills
	// fail, so the append dies when it needs a second cluster.
	env := g.Env()
	orig := env.MemAlloc
	env.MemAlloc = func(size uint32, flags core.MemFlags, align uint32) (hw.PhysAddr, []byte, bool) {
		return 0, nil, false
	}
	defer func() { env.MemAlloc = orig }()

	live := g.Malloc.LiveBytes()
	var sb sockbuf
	sb.init(s)
	if sb.appendData(make([]byte, 5000)) {
		t.Fatal("appendData succeeded with client memory exhausted")
	}
	if sb.head != nil {
		t.Fatal("failed append left a chain attached to the buffer")
	}
	if sb.cc != 0 {
		t.Fatalf("cc = %d after failed append, want 0", sb.cc)
	}
	if got, held := g.Malloc.LiveBytes(), freeListBytes(t, s); got != live+held {
		t.Fatalf("malloc live bytes %d != %d before the failed append + %d on the free lists: the partial chain leaked", got, live, held)
	}
	if a, f := stat(t, s, "mbuf.allocs"), stat(t, s, "mbuf.frees"); a != f {
		t.Fatalf("mbuf.allocs %d != mbuf.frees %d after the failed append", a, f)
	}
}

// TestSockbufAppendFailureUnappends: an append that runs out of memory
// part-way — after filling the last link's trailing space — takes back
// what it copied.  Bytes left in the chain that cc does not count would
// be read, or transmitted, as if they belonged to the stream.
func TestSockbufAppendFailureUnappends(t *testing.T) {
	s := bareStack(t)
	pat := make([]byte, 250)
	for i := range pat {
		pat[i] = byte(i)
	}
	var sb sockbuf
	sb.init(s)
	if !sb.appendData(pat[:50]) { // half of the header mbuf
		t.Fatal("appendData failed")
	}

	// Small blocks remain (the page the header mbuf came from); clusters
	// cannot be had.
	env := s.Glue().Env()
	orig := env.MemAlloc
	env.MemAlloc = func(size uint32, flags core.MemFlags, align uint32) (hw.PhysAddr, []byte, bool) {
		return 0, nil, false
	}
	if sb.appendData(make([]byte, 5000)) {
		t.Fatal("appendData succeeded with client memory exhausted")
	}
	env.MemAlloc = orig
	if sb.cc != 50 || sb.head.PktLen != 50 {
		t.Fatalf("after the failed append cc=%d pktlen=%d, want 50/50", sb.cc, sb.head.PktLen)
	}

	if !sb.appendData(pat[50:]) {
		t.Fatal("appendData failed after memory came back")
	}
	got := make([]byte, 400)
	if n := sb.read(got); n != len(pat) || !bytes.Equal(got[:n], pat) {
		t.Fatalf("read %d bytes, want the %d appended successfully and nothing of the failed append", n, len(pat))
	}
	if sb.head != nil {
		t.Fatal("head != nil after draining the buffer")
	}
}

// TestSockbufAppendClusterThreshold: m_append takes a cluster only for
// mclMin bytes or more; a shorter append rides small mbufs, so no 2 KB
// buffer is held for a few hundred bytes.
func TestSockbufAppendClusterThreshold(t *testing.T) {
	s := bareStack(t)
	for _, tc := range []struct {
		n        int
		clusters int64
	}{{mclMin - 1, 0}, {mclMin, 1}, {MCLBYTES + mclMin - 1, 1}} {
		var sb sockbuf
		sb.init(s)
		before := stat(t, s, "mbuf.cluster_allocs")
		if !sb.appendData(stream(tc.n)) {
			t.Fatal("appendData failed")
		}
		if got := stat(t, s, "mbuf.cluster_allocs") - before; got != tc.clusters {
			t.Errorf("appending %d bytes allocated %d clusters, want %d", tc.n, got, tc.clusters)
		}
		got := make([]byte, tc.n+1)
		if n := sb.read(got); n != tc.n || !bytes.Equal(got[:n], stream(tc.n)) {
			t.Errorf("read %d bytes back, want the %d appended", n, tc.n)
		}
	}
}

// TestSockbufDropRead drives sbdrop/read edge cases against a known
// two-link chain: 100 bytes filling the header mbuf exactly, 50 more in
// a plain second link.
func TestSockbufDropRead(t *testing.T) {
	pat := make([]byte, 150)
	for i := range pat {
		pat[i] = byte(i)
	}
	cases := []struct {
		name        string
		dropLen     int
		readLen     int // when >0, read into a dst this long instead
		wantN       int
		wantCC      int
		wantLinks   int // 0 means the head must be nil
		wantHeadLen int
		wantData    []byte
	}{
		{name: "drop exactly one link", dropLen: 100, wantCC: 50, wantLinks: 1, wantHeadLen: 50},
		{name: "drop within first link", dropLen: 30, wantCC: 120, wantLinks: 2, wantHeadLen: 70},
		{name: "drop past cc clamps", dropLen: 999, wantCC: 0, wantLinks: 0},
		{name: "read into short dst", readLen: 60, wantN: 60, wantCC: 90, wantLinks: 2, wantHeadLen: 40, wantData: pat[:60]},
		{name: "read past cc returns what is there", readLen: 400, wantN: 150, wantCC: 0, wantLinks: 0, wantData: pat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := bareStack(t)
			var sb sockbuf
			sb.init(s)
			if !sb.appendData(pat[:100]) || !sb.appendData(pat[100:]) {
				t.Fatal("appendData failed")
			}
			if sb.cc != 150 || chainLinks(sb.head) != 2 || sb.head.PktLen != 150 {
				t.Fatalf("setup: cc=%d links=%d pktlen=%d, want 150/2/150",
					sb.cc, chainLinks(sb.head), sb.head.PktLen)
			}

			if tc.readLen > 0 {
				dst := make([]byte, tc.readLen)
				n := sb.read(dst)
				if n != tc.wantN {
					t.Fatalf("read = %d, want %d", n, tc.wantN)
				}
				if !bytes.Equal(dst[:n], tc.wantData) {
					t.Fatal("read returned wrong bytes")
				}
			} else {
				sb.drop(tc.dropLen)
			}

			if sb.cc != tc.wantCC {
				t.Fatalf("cc = %d, want %d", sb.cc, tc.wantCC)
			}
			if tc.wantLinks == 0 {
				if sb.head != nil {
					t.Fatal("head != nil after draining the buffer")
				}
				return
			}
			if got := chainLinks(sb.head); got != tc.wantLinks {
				t.Fatalf("chain links = %d, want %d", got, tc.wantLinks)
			}
			if sb.head.len != tc.wantHeadLen {
				t.Fatalf("head.len = %d, want %d", sb.head.len, tc.wantHeadLen)
			}
			if sb.head.PktLen != tc.wantCC {
				t.Fatalf("PktLen = %d, want cc = %d", sb.head.PktLen, tc.wantCC)
			}
			// The surviving bytes must be the unconsumed tail.
			consumed := 150 - tc.wantCC
			dst := make([]byte, tc.wantCC)
			if n := sb.head.CopyData(0, tc.wantCC, dst); n != tc.wantCC {
				t.Fatalf("CopyData = %d, want %d", n, tc.wantCC)
			}
			if !bytes.Equal(dst, pat[consumed:]) {
				t.Fatal("surviving bytes are not the unconsumed tail")
			}
			sb.flush()
		})
	}
}
