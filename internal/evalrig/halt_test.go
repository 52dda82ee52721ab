package evalrig

// A halted rig leaves nothing behind: its machines' memory and disk
// images are unmapped at Halt, and no registry keeps a node reachable,
// so booting and halting rigs over and over does not grow the heap.

import (
	"runtime"
	"testing"
	"time"
)

// liveHeap is the heap in use after two collections (the second
// finishes what the first's finalizers left).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// refDebug is set by refdebug_test.go in oskitrefdebug builds.
var refDebug bool

// retainedBy runs boot-and-halt ten times after one warm-up round and
// returns the heap it left behind.
func retainedBy(t *testing.T, cycle func() error) int64 {
	t.Helper()
	if refDebug {
		t.Skip("the oskitrefdebug ledger keeps every destroyed COM object reachable")
	}
	if err := cycle(); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	for range 10 {
		if err := cycle(); err != nil {
			t.Fatal(err)
		}
	}
	return liveHeap() - base
}

func TestHaltReleasesPairs(t *testing.T) {
	grown := retainedBy(t, func() error {
		p, err := NewPair(OSKit, time.Millisecond)
		if err != nil {
			return err
		}
		defer p.Halt()
		_, err = TTCP(p, 16, 4096, 5013)
		return err
	})
	if grown > 1<<20 {
		t.Fatalf("ten OSKit pairs retained %d bytes of heap after Halt", grown)
	}
}

func TestHaltReleasesHTTPClusters(t *testing.T) {
	grown := retainedBy(t, func() error {
		c, err := NewCluster(OSKit, 3, time.Millisecond, Options{FastPath: true, DiskSectors: 16384})
		if err != nil {
			return err
		}
		defer c.Halt()
		_, err = HTTPGet(c, HTTPOptions{Requests: 8, Workers: 2, Files: 2, FileBytes: 16384, Seed: 5})
		return err
	})
	if grown > 1<<20 {
		t.Fatalf("ten 3-node HTTP clusters retained %d bytes of heap after Halt", grown)
	}
}

// TestBigClusterHalts: 64 nodes of 64 MiB boot and halt; what is left
// on the heap afterwards does not grow with the node count.  The first
// cluster warms the process's one-time state; the second is measured.
func TestBigClusterHalts(t *testing.T) {
	const nodes = 64
	var booted, grown int64
	for range 2 {
		base := liveHeap()
		c, err := NewCluster(OSKit, nodes, time.Millisecond, Options{})
		if err != nil {
			t.Fatal(err)
		}
		booted = liveHeap() - base
		c.Halt()
		grown = liveHeap() - base
	}
	t.Logf("%d nodes: %d heap bytes while up, %d retained after Halt", nodes, booted, grown)
	if grown > nodes*1024 {
		t.Fatalf("%d nodes retained %d bytes of heap after Halt (%d per node)", nodes, grown, grown/nodes)
	}
}
