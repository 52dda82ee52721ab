//go:build unix

package hw

import (
	"fmt"
	"syscall"
)

// mapMem returns size bytes of zeroed memory outside the Go heap: one
// anonymous private mapping, so a machine costs the pages it touches,
// the collector neither scans nor paces against it, and Halt gives it
// back at once instead of at some later collection.
func mapMem(size uint64) []byte {
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("hw: mapping %d bytes: %v", size, err))
	}
	return b
}

// unmapMem releases a mapMem region.  Under oskitrefdebug the region
// stays mapped with no access rights instead, so a use after Halt
// faults at the violating access rather than touching reused memory.
func unmapMem(b []byte) {
	if len(b) == 0 {
		return
	}
	if haltFaults {
		_ = syscall.Mprotect(b, syscall.PROT_NONE)
		return
	}
	_ = syscall.Munmap(b)
}
