package libc

import (
	"sync"

	"oskit/internal/com"
	"oskit/internal/hw"
	"oskit/internal/stats"
)

// QuickPool is the high-level allocator the paper's §6.2.10 deficiency
// list calls for: profiling the benchmark kernels showed significant time
// in memory allocation because the LMM "is designed for flexibility and
// space efficiency rather than common-case performance", and the authors
// proposed layering a conventional fast allocator for small fixed-size
// structures on top of the existing low-level one.  This is that
// allocator, built here as the paper's future work.
//
// It is a power-of-two segregated free-list allocator: size classes from
// 16 bytes to 4 KB, each class refilled a slab at a time from the
// underlying Malloc, with freed blocks pushed onto a per-class LIFO.
// Larger requests fall through to Malloc directly.
//
// The free lists are protected by a ranked leaf mutex rather than the
// environment's interrupt exclusion: on a multi-CPU machine interrupt
// exclusion is per-CPU, so two rings' handlers (or a handler and a
// process-level thread on another CPU) would race on the lists — and a
// thread that disables interrupts while holding a protocol lock can
// deadlock against a dispatcher whose handler wants that same lock.
// The pool may still be called from interrupt handlers and from
// concurrent process-level threads alike; the lock is taken below every
// protocol and glue lock (rank 82) and only the LMM's own internal
// mutex sits beneath it.  A pool created with NewQuickPoolService is additionally
// a COM object answering for com.Allocator — the packet paths of the
// fast-path configuration discover and bind it through the registry
// (§4.2.2) — and exports "quickpool" statistics plus an allocation-failure
// hook for the fault-injection plane.
//
// NOTE: addresses handed out by the pool sit 8 bytes past their Malloc
// header and are therefore never naturally aligned to large powers of
// two.  Clients with alignment-dependent address arithmetic (the mbuf
// cluster refcount table, §4.7.7 property 1) must not draw those
// allocations from a pool.
//
// The E10 benchmark (bench_test.go) measures QuickPool against raw LMM
// allocation, reproducing the shape of the paper's observation; E11
// measures it inside the fast-path packet configuration.
type QuickPool struct {
	com.RefCount
	c *C

	// mu guards the free lists, the slab counts and the fault hook.
	mu poolLock
	// classes[i] holds free blocks of size 16<<i.
	classes [maxClass][]poolBlock //oskit:guardedby mu
	// slabs tracks slab base addresses per class for accounting.
	slabCount [maxClass]int //oskit:guardedby mu

	// hook, when set, may veto an allocation before any free list or
	// refill runs (fault injection).  Read and written under mu, like
	// the free lists.
	hook func(size uint32) bool //oskit:guardedby mu

	// com.Stats export (nil-safe: a plain NewQuickPool pool counts
	// nothing, the service constructor wires a "quickpool" set).
	statsSet  *stats.Set //oskit:initonly
	scAllocs  *stats.Counter
	scFrees   *stats.Counter
	scHits    *stats.Counter
	scRefills *stats.Counter
	scFails   *stats.Counter
}

type poolBlock struct {
	addr hw.PhysAddr
	buf  []byte
}

// poolLock is the fast allocator's free-list lock: a leaf below every
// protocol, glue and stack lock (only the LMM's internal mutex is
// deeper, and that one is invisible to the ranked set).
//
//oskit:lockrank 82
type poolLock struct{ sync.Mutex }

const (
	minClassShift = 4 // 16 bytes
	maxClass      = 9 // 16 << 8 = 4096
	slabBlocks    = 64
)

// NewQuickPool creates a pool over the library's malloc.
func NewQuickPool(c *C) *QuickPool {
	p := &QuickPool{c: c}
	p.Init()
	return p
}

// NewQuickPoolService creates a pool and publishes it: the pool itself
// under com.AllocatorIID and its statistics set ("quickpool") under
// com.StatsIID, both in the environment's services registry.  The
// registry holds the returned references alive; the caller keeps its own.
func NewQuickPoolService(c *C) *QuickPool {
	p := NewQuickPool(c)
	set := stats.NewSet("quickpool")
	p.statsSet = set
	p.scAllocs = set.Counter("qp.allocs")
	p.scFrees = set.Counter("qp.frees")
	p.scHits = set.Counter("qp.hits")
	p.scRefills = set.Counter("qp.refills")
	p.scFails = set.Counter("qp.fails")
	c.env.Registry.Register(com.StatsIID, set)
	set.Release()
	c.env.Registry.Register(com.AllocatorIID, p)
	return p
}

// QueryInterface implements com.IUnknown: the pool answers for the
// allocator service.
func (p *QuickPool) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.AllocatorIID:
		p.AddRef()
		return p, nil
	}
	return nil, com.ErrNoInterface
}

// SetAllocFaultHook installs (or, with nil, removes) an allocation
// fault-injection hook: when it returns true the allocation fails as
// exhaustion would (counted in qp.fails).  Safe to toggle mid-traffic.
func (p *QuickPool) SetAllocFaultHook(h func(size uint32) bool) {
	p.mu.Lock()
	p.hook = h
	p.mu.Unlock()
}

// StatsSet returns the pool's com.Stats export (nil for a plain pool).
func (p *QuickPool) StatsSet() *stats.Set { return p.statsSet }

// classFor returns the size class index for size, or -1 when the request
// should fall through to Malloc.
func classFor(size uint32) int {
	cls := 0
	for s := uint32(1) << minClassShift; cls < maxClass; cls, s = cls+1, s<<1 {
		if size <= s {
			return cls
		}
	}
	return -1
}

// Alloc returns a block of at least size bytes.  Safe from interrupt
// handlers and concurrent process-level threads.
func (p *QuickPool) Alloc(size uint32) (hw.PhysAddr, []byte, bool) {
	p.mu.Lock()
	addr, buf, ok, hit := p.allocLocked(size)
	p.mu.Unlock()
	if !ok {
		p.scFails.Inc()
		return 0, nil, false
	}
	p.scAllocs.Inc()
	if hit {
		p.scHits.Inc()
	}
	return addr, buf, true
}

func (p *QuickPool) allocLocked(size uint32) (hw.PhysAddr, []byte, bool, bool) {
	if p.hook != nil && p.hook(size) {
		return 0, nil, false, false
	}
	cls := classFor(size)
	if cls < 0 {
		addr, buf, ok := p.c.Malloc(size)
		return addr, buf, ok, false
	}
	hit := len(p.classes[cls]) > 0
	if !hit && !p.refill(cls) {
		return 0, nil, false, false
	}
	list := p.classes[cls]
	b := list[len(list)-1]
	p.classes[cls] = list[:len(list)-1]
	return b.addr, b.buf[:size], true, hit
}

// Free returns a block allocated with Alloc; size must be the requested
// size (the fast path keeps no headers — that is where the speed comes
// from).  Safe from the same contexts as Alloc.
func (p *QuickPool) Free(addr hw.PhysAddr, size uint32) {
	p.mu.Lock()
	p.freeLocked(addr, size)
	p.mu.Unlock()
	p.scFrees.Inc()
}

func (p *QuickPool) freeLocked(addr hw.PhysAddr, size uint32) {
	cls := classFor(size)
	if cls < 0 {
		p.c.Free(addr)
		return
	}
	blockSize := uint32(1) << (minClassShift + cls)
	buf, err := p.c.env.Machine.Mem.Slice(addr, blockSize)
	if err != nil {
		p.c.env.Panic("libc: QuickPool.Free(%#x): %v", addr, err)
		return
	}
	p.classes[cls] = append(p.classes[cls], poolBlock{addr, buf})
}

// AllocMem implements com.Allocator over Alloc.
func (p *QuickPool) AllocMem(size uint32) (uint32, []byte, bool) {
	addr, buf, ok := p.Alloc(size)
	return uint32(addr), buf, ok
}

// FreeMem implements com.Allocator over Free.
func (p *QuickPool) FreeMem(addr uint32, size uint32) {
	p.Free(hw.PhysAddr(addr), size)
}

// refill carves one slab from the underlying malloc into class blocks.
// Called with mu held.
func (p *QuickPool) refill(cls int) bool {
	blockSize := uint32(1) << (minClassShift + cls)
	addr, buf, ok := p.c.Malloc(blockSize * slabBlocks)
	if !ok {
		return false
	}
	for i := uint32(0); i < slabBlocks; i++ {
		off := i * blockSize
		p.classes[cls] = append(p.classes[cls], poolBlock{
			addr: addr + off,
			buf:  buf[off : off+blockSize : off+blockSize],
		})
	}
	p.slabCount[cls]++
	p.scRefills.Inc()
	return true
}

// Stats reports slabs allocated per class (for tests).
func (p *QuickPool) Stats() (slabs int, cached int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < maxClass; i++ {
		slabs += p.slabCount[i]
		cached += len(p.classes[i])
	}
	return
}

var _ com.Allocator = (*QuickPool)(nil)
