//go:build oskitrefdebug && unix

package hw

import (
	"runtime/debug"
	"testing"
)

var faultSink byte

// touch reads b[0], reporting whether the read faulted.
func touch(b []byte) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if recover() != nil {
			faulted = true
		}
	}()
	faultSink = b[0]
	return false
}

// TestHaltedMemoryFaults: under oskitrefdebug a halted machine's memory
// stays mapped with no access rights, so a slice kept past Halt faults
// at its first touch instead of reading freed memory.
func TestHaltedMemoryFaults(t *testing.T) {
	m := NewMachine(Config{Name: "halted", MemBytes: 1 << 20})
	b := m.Mem.MustSlice(4096, 64)
	b[0] = 0x5a
	if touch(b) || faultSink != 0x5a {
		t.Fatal("live machine memory faulted")
	}
	m.Halt()
	if !touch(b) {
		t.Fatal("reading a halted machine's memory did not fault")
	}
	m.Halt() // idempotent
}
