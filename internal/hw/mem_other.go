//go:build !unix

package hw

// mapMem is the fallback where there is no mmap: machine memory lives
// on the Go heap and Halt only drops the reference.
func mapMem(size uint64) []byte { return make([]byte, size) }

func unmapMem([]byte) {}
