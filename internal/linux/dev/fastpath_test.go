package linuxdev

import (
	"bytes"
	"sync"
	"testing"

	"oskit/internal/com"
	"oskit/internal/hw"
)

// sgBuf is a producer that cannot be mapped contiguously but exports
// its fragment list — the shape a chained mbuf presents to the glue.
type sgBuf struct {
	*com.MemBuf
	data []byte
}

func newSGBuf(data []byte) *sgBuf {
	return &sgBuf{MemBuf: com.NewMemBuf(data), data: data}
}

func (b *sgBuf) Map(offset, amount uint) ([]byte, error) {
	return nil, com.ErrNotImplemented
}

func (b *sgBuf) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	if iid == com.SGBufIOIID {
		b.AddRef()
		return b, nil
	}
	return b.MemBuf.QueryInterface(iid)
}

// MapSG splits the packet into 64-byte runs, like a chain of small
// mbufs.
func (b *sgBuf) MapSG(offset, amount uint) ([][]byte, error) {
	if offset+amount > uint(len(b.data)) {
		return nil, com.ErrInval
	}
	var parts [][]byte
	for cur := b.data[offset : offset+amount]; len(cur) > 0; {
		n := 64
		if n > len(cur) {
			n = len(cur)
		}
		parts = append(parts, cur[:n])
		cur = cur[n:]
	}
	return parts, nil
}

func (b *sgBuf) UnmapSG(parts [][]byte) error { return nil }

var _ com.SGBufIO = (*sgBuf)(nil)

// TestFastPathSGXmit pins the new branch of the §4.7.3 decision tree in
// isolation: an unmappable producer with a fragment list leaves through
// the gather path on a FeatSG device (no flatten copy), and the frame
// on the wire is intact.
func TestFastPathSGXmit(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a := newRig(t, sw, 1, hw.Model3C59X)
	b := newRig(t, sw, 2, hw.Model3C59X)
	fastPool(a)
	edA, txA, _ := openEther(t, a)
	_, _, rxB := openEther(t, b)
	defer txA.Release()
	defer edA.Release()
	g := GlueFor(a.k.Env)

	payload := bytes.Repeat([]byte{0x5A}, 300)
	f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(), payload)
	if err := txA.Push(newSGBuf(f), uint(len(f))); err != nil {
		t.Fatal(err)
	}
	got := rxB.wait(t, 1)
	if !bytes.Equal(got[0], f) {
		t.Fatalf("received %d bytes, want %d", len(got[0]), len(f))
	}
	if snap := kmSnap(g); snap["xmit.sg"] != 1 || snap["xmit.flattened"] != 0 {
		t.Fatalf("xmit counters sg=%d flattened=%d, want 1/0", snap["xmit.sg"], snap["xmit.flattened"])
	}
	if a.nic.TxGathers() != 1 {
		t.Fatalf("NIC gather transmits = %d, want 1", a.nic.TxGathers())
	}
}

// TestFastPathConcurrentAllocXmit hammers the QuickPool-backed kmalloc
// from several goroutines while another streams scatter-gather packets
// through the same glue — the contention pattern of a fast-path node
// under load (process-level senders against interrupt-level receive
// allocation).  Run under -race by the tier-1 suite; the burst must
// leave the pool balanced.
func TestFastPathConcurrentAllocXmit(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a := newRig(t, sw, 1, hw.Model3C59X)
	b := newRig(t, sw, 2, hw.Model3C59X)
	pool := fastPool(a)
	edA, txA, _ := openEther(t, a)
	_, _, rxB := openEther(t, b)
	defer txA.Release()
	defer edA.Release()
	g := GlueFor(a.k.Env)

	// Ledger baseline after open: the donor's descriptor ring is a live
	// pooled allocation until Stop, so the burst is asserted as a delta.
	allocs0 := pool.StatsSet().Counter("qp.allocs").Load()
	frees0 := pool.StatsSet().Counter("qp.frees").Load()

	const (
		pkts    = 200
		workers = 4
		rounds  = 400
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(),
			bytes.Repeat([]byte{0xC3}, 200))
		for i := 0; i < pkts; i++ {
			if err := txA.Push(newSGBuf(f), uint(len(f))); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes := []uint32{32, 96, 128, 1024}
			for i := 0; i < rounds; i++ {
				kb := g.Kernel().Kmalloc(sizes[(i+w)%len(sizes)], 0)
				if kb == nil {
					t.Error("kmalloc failed under concurrent load")
					return
				}
				if !kb.Pooled {
					t.Error("fast-path kmalloc did not draw from the pool")
					return
				}
				kb.Data[0] = byte(i)
				g.Kernel().Kfree(kb)
			}
		}()
	}
	wg.Wait()
	rxB.wait(t, pkts)

	if snap := kmSnap(g); snap["xmit.sg"] != pkts || snap["xmit.flattened"] != 0 {
		t.Fatalf("xmit counters sg=%d flattened=%d, want %d/0", snap["xmit.sg"], snap["xmit.flattened"], pkts)
	}
	allocs := pool.StatsSet().Counter("qp.allocs").Load() - allocs0
	frees := pool.StatsSet().Counter("qp.frees").Load() - frees0
	if allocs != uint64(workers*rounds) || frees != allocs {
		t.Fatalf("pool allocs/frees over the burst = %d/%d, want %d balanced", allocs, frees, workers*rounds)
	}
}
