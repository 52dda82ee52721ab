// Package testskip is a structure-test fixture: its only non-test file
// is clean under the analyzer suite, while its _test.go deliberately
// violates a guarded annotation.  TestLintSkipsTestFiles runs oskitcheck
// over this package and expects silence, pinning the contract that test
// files stay outside the invariants.
package testskip

import "sync"

// Box is shared state with a machine-checked owner.
type Box struct {
	mu sync.Mutex
	n  int //oskit:guardedby mu
}

// Bump is the disciplined accessor; test files are free to skip the
// lock, which is exactly what this fixture's _test.go does.
func (b *Box) Bump() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// Value reads under the lock.
func (b *Box) Value() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}
