package linuxdev

import (
	"oskit/internal/com"
	"oskit/internal/linux/legacy"
)

// skbIO exports an skbuff as a COM BufIO object without copying: "the
// COM interface is simply a one-word field in the skbuff structure in
// which the glue code places a pointer to a function table providing
// methods to access the skbuff's contents" (§4.7.3).  Here the one-word
// field is skb.COMSlot and the function table is Go's method set.
//
// The object owns one skbuff reference, dropped when the last COM
// reference goes away.
type skbIO struct {
	com.RefCount
	g   *Glue
	skb *legacy.SKBuff
}

// wrapSKB wraps an skbuff, consuming the caller's skb reference.  The
// wrapper is built the first time its skbuff header is exported and
// stays in the COM slot as the kernel recycles the header, so later
// exports allocate nothing.
func (g *Glue) wrapSKB(skb *legacy.SKBuff) *skbIO {
	b, _ := skb.COMSlot.(*skbIO)
	if b == nil {
		b = &skbIO{g: g, skb: skb}
		b.OnLastRelease = skb.Free
		skb.COMSlot = b
	}
	b.Init()
	return b
}

// nativeSKB recognizes the glue's own BufIO objects — the donor-side
// fast path of §4.7.3, where "the Linux glue code can easily recognize
// 'foreign' bufio objects by checking their function table pointer".
// The returned skbuff carries a fresh reference.
func (g *Glue) nativeSKB(pkt com.BufIO) (*legacy.SKBuff, bool) {
	if b, ok := pkt.(*skbIO); ok && b.g == g {
		return b.skb.Get(), true
	}
	return nil, false
}

// QueryInterface implements com.IUnknown.
func (b *skbIO) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.BlkIOIID, com.BufIOIID:
		b.AddRef()
		return b, nil
	}
	return nil, com.ErrNoInterface
}

// BlockSize implements com.BlkIO.
func (b *skbIO) BlockSize() uint { return 1 }

// Read implements com.BlkIO.
func (b *skbIO) Read(buf []byte, offset uint64) (uint, error) {
	if offset >= uint64(b.skb.Len) {
		return 0, nil
	}
	return uint(copy(buf, b.skb.Data[offset:])), nil
}

// Write implements com.BlkIO.
func (b *skbIO) Write(buf []byte, offset uint64) (uint, error) {
	if offset+uint64(len(buf)) > uint64(b.skb.Len) {
		return 0, com.ErrInval
	}
	return uint(copy(b.skb.Data[offset:], buf)), nil
}

// Size implements com.BlkIO.
func (b *skbIO) Size() (uint64, error) { return uint64(b.skb.Len), nil }

// SetSize implements com.BlkIO: shrink only (skb_trim).
func (b *skbIO) SetSize(size uint64) error {
	if size > uint64(b.skb.Len) {
		return com.ErrNotImplemented
	}
	b.skb.Trim(int(size))
	return nil
}

// Map implements com.BufIO: skbuffs are always contiguous, so mapping
// always succeeds — which is why the receive path of §5 never copies.
func (b *skbIO) Map(offset, amount uint) ([]byte, error) {
	if uint64(offset)+uint64(amount) > uint64(b.skb.Len) {
		return nil, com.ErrInval
	}
	return b.skb.Data[offset : offset+amount], nil
}

// Unmap implements com.BufIO.
func (b *skbIO) Unmap(buf []byte) error { return nil }

// Wire implements com.BufIO, returning the skbuff's physical address for
// DMA; fake skbuffs decline.
func (b *skbIO) Wire() (uint32, error) {
	addr, ok := b.skb.PhysAddr()
	if !ok {
		return 0, com.ErrNotImplemented
	}
	return addr, nil
}

// Unwire implements com.BufIO.
func (b *skbIO) Unwire() error { return nil }

var _ com.BufIO = (*skbIO)(nil)
