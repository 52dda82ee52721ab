// Fixture for detsource placed at import path "internal/hw", inside the
// determinism contract: wall-clock reads, global rand draws, and
// map-ordered side effects must all be flagged; the seeded-source and
// collect-then-sort idioms must stay silent.
package hw

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// entropy reads the wall clock and the global rand source.
func entropy(t0 time.Time) (time.Duration, int) {
	now := time.Now()   // want `time\.Now reads the wall clock in a determinism-contract package`
	d := time.Since(t0) // want `time\.Since reads the wall clock in a determinism-contract package`
	_ = now
	return d, rand.Intn(8) // want `rand\.Intn draws from the global process-seeded source`
}

// seeded draws from an explicitly-seeded source, the seeded-workload idiom.
func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// mapOrderLeak builds an output slice in map order.
func mapOrderLeak(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside a map range builds a map-ordered slice`
	}
	return out
}

// mapOrderSorted is the collect-then-sort idiom: allowed.
func mapOrderSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mapOrderSend delivers map entries on a channel in iteration order.
func mapOrderSend(m map[string]int, ch chan<- string) {
	for k := range m {
		ch <- k // want `channel send inside a map range`
	}
}

// mapOrderWrite streams map entries in iteration order.
func mapOrderWrite(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside a map range emits map-ordered output`
	}
}

// mapOrderLocal appends into a slice scoped to one iteration; no order
// escapes the loop.
func mapOrderLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var row []int
		row = append(row, vs...)
		total += len(row)
	}
	return total
}

// waived documents a reviewed wall-clock use.
func waived() time.Time {
	//oskit:allow detsource -- fixture: designated wall-clock boundary
	return time.Now()
}
