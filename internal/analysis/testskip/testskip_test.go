package testskip

import "testing"

// TestRacyBump touches Box.n without its lock: if oskitcheck analyzed
// test files, this would be a guarded diagnostic and
// TestLintSkipsTestFiles (structure_test.go) would fail.
func TestRacyBump(t *testing.T) {
	var b Box
	b.n++
	if b.Value() != 1 {
		t.Fatal("lost the bump")
	}
}
