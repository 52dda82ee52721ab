package hw

import (
	"fmt"
	"sync/atomic"
)

// PhysAddr is a simulated physical memory address.
type PhysAddr = uint32

// DMALimit is the highest physical address (exclusive) reachable by the
// simulated machine's legacy DMA engines — the PC's ISA constraint the
// paper cites in §3.3: "only the first 16MB of physical memory on PCs is
// accessible to the built-in DMA controller".
const DMALimit PhysAddr = 16 << 20

// PhysMem is the machine's flat physical memory.  Addresses are offsets
// into a single backing array, so components that manipulate addresses
// arithmetically (the LMM's alignment machinery, BSD malloc's block-size
// table, page tables) operate on genuine integer addresses whose storage
// they can also touch.
//
// Code that needs to translate a buffer back to its physical address (for
// DMA programming, §4.7.8) must carry the address alongside the slice; the
// kit's allocators all hand out (address, slice) pairs for this reason.
//
// The backing array is an anonymous mapping, not a Go slice (mapMem):
// it is released when the machine halts, after which no slice of it may
// be touched.
type PhysMem struct {
	data     []byte
	released atomic.Bool
}

// NewPhysMem maps size bytes of zeroed physical memory.
func NewPhysMem(size uint32) *PhysMem {
	return &PhysMem{data: mapMem(uint64(size))}
}

// release gives the memory back (Machine.Halt); idempotent.
func (p *PhysMem) release() {
	if !p.released.Swap(true) {
		unmapMem(p.data)
	}
}

// Size returns the physical memory size in bytes.
func (p *PhysMem) Size() uint32 { return uint32(len(p.data)) }

// Slice returns the memory aliasing [addr, addr+size).  Out-of-range
// accesses return an error (the simulated machine-check).
func (p *PhysMem) Slice(addr PhysAddr, size uint32) ([]byte, error) {
	end := uint64(addr) + uint64(size)
	if end > uint64(len(p.data)) {
		return nil, fmt.Errorf("hw: physical access [%#x,%#x) beyond %#x", addr, end, len(p.data))
	}
	return p.data[addr:end:end], nil
}

// MustSlice is Slice for callers whose addresses were validated at
// allocation time; a bad address is a kit bug and panics like a machine
// check would halt a real CPU.
func (p *PhysMem) MustSlice(addr PhysAddr, size uint32) []byte {
	b, err := p.Slice(addr, size)
	if err != nil {
		panic(err)
	}
	return b
}
