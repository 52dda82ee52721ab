//go:build amd64 || arm64

package hw

// getg returns the address of the running goroutine's runtime g — the
// register the Go runtime itself reads to answer "which thread am I"
// (getg_amd64.s, getg_arm64.s).  The value is opaque: never dereferenced,
// never converted back to a pointer.
func getg() uint64

func goid() uint64 { return getg() }
