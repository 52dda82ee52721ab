package evalrig

// The receive path's two sides of one threshold, by counter: a bulk
// transfer's segments are linked into the socket in the driver buffers
// they arrived in (no cluster is allocated to hold them), and a dribble
// of tiny segments is copied, leaving no driver buffer pinned.

import (
	"testing"
	"time"
)

// settled polls until ok reports true, or gives up after five seconds:
// counters of the side that finished second land a few instructions
// after the workload returns.
func settled(ok func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestTCPReceiveLinksDriverBuffer: a verified 1 MiB ttcp into an OSKit
// node.  Every inbound frame is wrapped, not copied; the receiver's
// cluster allocations do not grow with the bytes received (the copy
// into fresh clusters cost about one per 1.4 segments); and when the
// connection is gone every mbuf — and so every driver buffer one held —
// has been freed.  Halt runs inside the test: under the oskitrefdebug
// build an over-released driver buffer panics here.
func TestTCPReceiveLinksDriverBuffer(t *testing.T) {
	p, err := NewPair(OSKit, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	rc := p.Receiver
	sent, recvd, err := TTCPVerified(p, 256, 4096, 5011, 22)
	if err != nil {
		t.Fatal(err)
	}
	if sent != recvd {
		t.Fatalf("stream corrupted: sent %08x, received %08x", sent, recvd)
	}
	segs := netStat(rc, "tcp.rx_seg_bytes.count")
	if got := netStat(rc, "tcp.rx_seg_bytes.sum"); got != 1<<20 || segs < 700 {
		t.Fatalf("receiver saw %d payload bytes in %d segments, want 1 MiB in full-size segments", got, segs)
	}
	if cl := netStat(rc, "mbuf.cluster_allocs"); cl > 16 {
		t.Errorf("receiver allocated %d clusters for %d segments: payload is being copied, not linked", cl, segs)
	}
	frames := netStat(rc, "ip.in") + netStat(rc, "arp.in")
	if zc, copied := netStat(rc, "ether.rx_zero_copy"), netStat(rc, "ether.rx_copied"); zc != frames || copied != 0 {
		t.Errorf("%d inbound frames: %d wrapped, %d copied", frames, zc, copied)
	}
	if !settled(func() bool { return netStat(rc, "mbuf.allocs") == netStat(rc, "mbuf.frees") }) {
		t.Errorf("receiver mbuf.allocs = %d, mbuf.frees = %d after the connection closed",
			netStat(rc, "mbuf.allocs"), netStat(rc, "mbuf.frees"))
	}
	p.Halt()
}

// TestSmallSegmentsAreCompressed: 200 one-byte segments sit unread in an
// OSKit node's socket.  They were copied (4.4BSD's sbcompress rule, the
// stack's mclMin), so the driver's allocator is back at its idle
// level — linking them would pin a 1.5 KB driver buffer a byte.
func TestSmallSegmentsAreCompressed(t *testing.T) {
	p, err := NewPair(OSKit, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	rc, sc := p.Receiver, p.Sender
	pinned := func() int64 {
		frees, _ := rc.Stat("linux_dev", "kmalloc.frees")
		allocs, _ := rc.Stat("linux_dev", "kmalloc.allocs")
		return allocs - frees
	}

	const port, n = 5012, 200
	lfd, err := listen(rc, port, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFD(rc, lfd)
	fd, err := dial(sc, rc.IP, port, "nodelay", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFD(sc, fd)
	var afd int
	rc.Do(func() { afd, _, err = rc.C.Accept(lfd) })
	if err != nil {
		t.Fatal(err)
	}
	defer closeFD(rc, afd)
	idle := pinned()

	for i := 0; i < n; i++ {
		if err := writeAll(sc, fd, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !settled(func() bool { return netStat(rc, "tcp.rx_seg_bytes.sum") == n }) {
		t.Fatalf("receiver saw %d of %d bytes", netStat(rc, "tcp.rx_seg_bytes.sum"), n)
	}
	if small := netStat(rc, "tcp.rx_seg_bytes.le_1"); small < n/2 {
		t.Fatalf("only %d one-byte segments arrived: the sender coalesced, nothing was dribbled", small)
	}
	if !settled(func() bool { return pinned() <= idle }) {
		t.Fatalf("%d driver buffers live with %d bytes unread, %d when idle: small segments pin their buffers", pinned(), n, idle)
	}

	got := make([]byte, n)
	if err := readFull(rc, afd, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("byte %d = %d", i, b)
		}
	}
}
