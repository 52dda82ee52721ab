//go:build !amd64 && !arm64

package hw

import "runtime"

// goid on ports without a getg stub: the goroutine number parsed from the
// runtime stack header ("goroutine N [running]: …"), whose first line is
// stable across Go releases.  It meets the GoID contract and costs
// microseconds; add a getg_$GOARCH.s before measuring anything there.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
