package legacy

import (
	"sync/atomic"

	"oskit/internal/cksum"
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

	// Checksum-offload descriptor (FeatCsum): when NeedsCsum is set the
	// transport checksum has NOT been computed — the field at packet
	// offset CsumStart+CsumOff holds the folded pseudo-header seed and
	// the transmitter must sum from CsumStart to the end of the frame
	// and store the complement there.  Only FeatCsum devices may be
	// handed such an skbuff.
	NeedsCsum bool
	CsumStart int
	CsumOff   int
}

// AllocSKB allocates a buffer with room for size bytes of packet data
// (dev_alloc_skb: GFP_ATOMIC|GFP_DMA, callable from interrupt handlers).
// Data starts empty; drivers extend it with Put.
func (k *Kernel) AllocSKB(size int) *SKBuff {
	buf := k.Kmalloc(uint32(size), GFPAtomic|GFPDMA)
	if buf == nil {
		return nil
	}
	skb := &SKBuff{Kern: k, buf: buf, Head: buf.Data[:size]}
	skb.Data = skb.Head[:0]
	skb.users.Store(1)
	return skb
}

// FakeSKB wraps foreign contiguous memory as an skbuff without copying —
// the glue's trick for transmit packets whose BufIO could be mapped
// (§4.7.3).  The result must not outlive data.
func (k *Kernel) FakeSKB(data []byte) *SKBuff {
	skb := &SKBuff{Kern: k, Head: data, Data: data, Len: len(data), fake: true}
	skb.users.Store(1)
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
	skb := &SKBuff{Kern: k, Len: total, frags: parts, fake: true}
	if len(parts) > 0 {
		skb.Head = parts[0]
		skb.Data = parts[0]
	}
	skb.users.Store(1)
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
	return [][]byte{skb.Data}
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
// (kfree_skb).
func (skb *SKBuff) Free() {
	if skb.users.Add(-1) > 0 {
		return
	}
	if skb.buf != nil && !skb.fake {
		skb.Kern.Kfree(skb.buf)
		skb.buf = nil
	}
}

// Users reports the current reference count (tests).
func (skb *SKBuff) Users() int32 { return skb.users.Load() }

// FinishCsum completes a deferred transport checksum in software: the
// ones-complement sum over the packet from CsumStart (the seeded field
// included), complemented and stored at CsumStart+CsumOff.  Used by
// transmit paths that cannot offload (no CsumChip engine) — the slow
// path, so a scattered packet is flattened first, as a non-gather driver
// would: the store cannot straddle runs.  A descriptor that does not fit
// the packet is dropped, as the NIC's engine drops it: the frame leaves
// with only its seed and the receiver's verify rejects it.
func (skb *SKBuff) FinishCsum() {
	if !skb.NeedsCsum {
		return
	}
	skb.NeedsCsum = false
	field := skb.CsumStart + skb.CsumOff
	if skb.CsumStart < 0 || skb.CsumOff < 0 || field+2 > skb.Len {
		return
	}
	skb.Data, skb.frags = skb.Flatten(), nil
	csum := ^cksum.Fold(cksum.Add(0, skb.Data[skb.CsumStart:], false))
	skb.Data[field], skb.Data[field+1] = byte(csum>>8), byte(csum)
}
