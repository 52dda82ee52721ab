package legacy

import (
	"sync"
	"sync/atomic"
)

// SKBuff is the Linux network packet buffer: one contiguous allocation
// whose implementation details are "thoroughly known throughout" the
// donor driver and networking code (paper §4.4.3) — which is exactly why
// the glue must hide it behind BufIO at the component boundary.
//
// COMSlot is the one-word field of §4.7.3: "The COM interface is simply a
// one-word field in the skbuff structure in which the glue code places a
// pointer to a function table."  Donor code never touches it.
type SKBuff struct {
	Kern *Kernel
	// buf is the backing kmalloc block; Head its full data area.
	buf  *KBuf
	Head []byte
	// Data is the live packet: Head[dataOff : dataOff+Len].
	Data    []byte
	Len     int
	dataOff int

	Dev   *NetDevice
	users atomic.Int32

	// COMSlot is reserved for the encapsulating glue.
	COMSlot any

	// fake marks an skbuff manufactured by the glue around foreign
	// memory (§4.7.3): its Head is not a kmalloc block and must not be
	// kfreed.
	fake bool

	// frags, when non-nil, is the packet's full ordered run list: a
	// gather skbuff (FakeSKBGather) whose storage is scattered across
	// several memory extents.  Data aliases the first run (so header
	// peeking keeps working) and Len is the whole-packet total.  Gather
	// skbuffs exist only on the transmit path and only drivers that
	// declare FeatSG ever see one; everything else must Flatten first.
	frags [][]byte

	one      [1][]byte // Runs' list for a contiguous skbuff
	nextFree *SKBuff   // the kernel's skbuff free list
}

// skbCache is the kernel's free list of skbuff headers (Linux's
// skbuff_head_cache): only the header is recycled; every packet's data
// area is still kmalloc'd and kfreed, so the kmalloc counters see each
// one.
type skbCache struct {
	mu   sync.Mutex
	free *SKBuff
}

// newSKB takes a header from the free list, or builds one.
func (k *Kernel) newSKB() *SKBuff {
	k.skbs.mu.Lock()
	skb := k.skbs.free
	if skb != nil {
		k.skbs.free = skb.nextFree
		skb.nextFree = nil
	}
	k.skbs.mu.Unlock()
	if skb == nil {
		skb = &SKBuff{Kern: k}
	}
	skb.users.Store(1)
	return skb
}

// recycle clears a header whose last reference is gone and puts it on
// the free list.  COMSlot survives: the glue's wrapper is recycled with
// the header it lives in.
func (skb *SKBuff) recycle() {
	skb.buf, skb.Head, skb.Data, skb.Len, skb.dataOff = nil, nil, nil, 0, 0
	skb.Dev, skb.fake, skb.frags, skb.one[0] = nil, false, nil, nil
	k := skb.Kern
	k.skbs.mu.Lock()
	skb.nextFree = k.skbs.free
	k.skbs.free = skb
	k.skbs.mu.Unlock()
}

// AllocSKB allocates a buffer with room for size bytes of packet data
// (dev_alloc_skb: GFP_ATOMIC|GFP_DMA, callable from interrupt handlers).
// Data starts empty; drivers extend it with Put.
func (k *Kernel) AllocSKB(size int) *SKBuff {
	buf := k.Kmalloc(uint32(size), GFPAtomic|GFPDMA)
	if buf == nil {
		return nil
	}
	skb := k.newSKB()
	skb.buf, skb.Head = buf, buf.Data[:size]
	skb.Data = skb.Head[:0]
	return skb
}

// FakeSKB wraps foreign contiguous memory as an skbuff without copying —
// the glue's trick for transmit packets whose BufIO could be mapped
// (§4.7.3).  The result must not outlive data.
func (k *Kernel) FakeSKB(data []byte) *SKBuff {
	skb := k.newSKB()
	skb.Head, skb.Data, skb.Len, skb.fake = data, data, len(data), true
	return skb
}

// FakeSKBGather wraps a list of foreign memory runs as one skbuff without
// copying: the scatter-gather analog of FakeSKB, manufactured by the glue
// around a producer's fragment list (com.SGBufIO).  The result must not
// outlive parts and may only be handed to a FeatSG device.
func (k *Kernel) FakeSKBGather(parts [][]byte) *SKBuff {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	skb := k.newSKB()
	skb.Len, skb.frags, skb.fake = total, parts, true
	if len(parts) > 0 {
		skb.Head = parts[0]
		skb.Data = parts[0]
	}
	return skb
}

// NrFrags reports the number of storage runs of a gather skbuff, zero for
// an ordinary contiguous one.
func (skb *SKBuff) NrFrags() int { return len(skb.frags) }

// Runs returns the packet's storage runs in order: the fragment list of a
// gather skbuff, or the single contiguous run of an ordinary one.
func (skb *SKBuff) Runs() [][]byte {
	if skb.frags != nil {
		return skb.frags
	}
	skb.one[0] = skb.Data
	return skb.one[:]
}

// Flatten returns the packet as one contiguous byte run, copying only
// when the skbuff is actually scattered — the defensive path a non-gather
// driver takes if a gather skbuff ever reaches it.
func (skb *SKBuff) Flatten() []byte {
	if skb.frags == nil {
		return skb.Data
	}
	flat := make([]byte, 0, skb.Len)
	for _, p := range skb.frags {
		flat = append(flat, p...)
	}
	return flat
}

// PhysAddr returns the physical address of the live data (for busmaster
// devices); fake skbuffs have none and return 0, false.
func (skb *SKBuff) PhysAddr() (uint32, bool) {
	if skb.buf == nil {
		return 0, false
	}
	return skb.buf.Addr + uint32(skb.dataOff), true
}

// Put extends the data area by n bytes and returns the new region
// (skb_put).  Panics on overrun like the real one (skb_over_panic).
func (skb *SKBuff) Put(n int) []byte {
	if skb.dataOff+skb.Len+n > len(skb.Head) {
		panic("legacy: skb_put overruns buffer")
	}
	old := skb.Len
	skb.Len += n
	skb.Data = skb.Head[skb.dataOff : skb.dataOff+skb.Len]
	return skb.Data[old:]
}

// Pull removes n bytes from the front (skb_pull), returning the new data.
func (skb *SKBuff) Pull(n int) []byte {
	if n > skb.Len {
		panic("legacy: skb_pull past end")
	}
	skb.dataOff += n
	skb.Len -= n
	skb.Data = skb.Head[skb.dataOff : skb.dataOff+skb.Len]
	return skb.Data
}

// Push prepends n bytes (skb_push); there must be headroom.
func (skb *SKBuff) Push(n int) []byte {
	if n > skb.dataOff {
		panic("legacy: skb_push without headroom")
	}
	skb.dataOff -= n
	skb.Len += n
	skb.Data = skb.Head[skb.dataOff : skb.dataOff+skb.Len]
	return skb.Data
}

// Reserve sets headroom before any data is Put (skb_reserve).
func (skb *SKBuff) Reserve(n int) {
	if skb.Len != 0 {
		panic("legacy: skb_reserve on non-empty skb")
	}
	skb.dataOff += n
	skb.Data = skb.Head[skb.dataOff:skb.dataOff]
}

// Trim shortens the data area to n bytes (skb_trim).
func (skb *SKBuff) Trim(n int) {
	if n > skb.Len {
		panic("legacy: skb_trim growing skb")
	}
	skb.Len = n
	skb.Data = skb.Head[skb.dataOff : skb.dataOff+skb.Len]
}

// Get takes another reference (skb_get).
func (skb *SKBuff) Get() *SKBuff {
	skb.users.Add(1)
	return skb
}

// Free drops one reference, kfreeing the backing storage at zero
// (kfree_skb) and returning the header to the kernel's free list: the
// skbuff must not be touched after its last Free.
func (skb *SKBuff) Free() {
	if skb.users.Add(-1) != 0 {
		return // still referenced, or an over-free, which is ignored
	}
	if skb.buf != nil && !skb.fake {
		skb.Kern.Kfree(skb.buf)
	}
	skb.recycle()
}

// Users reports the current reference count (tests).
func (skb *SKBuff) Users() int32 { return skb.users.Load() }
