package bsdnet

import (
	"testing"
)

// TestScheduleDeterministic is the harness's core contract: the same
// (seed, n, body) executes the identical interleaving, replayable from
// the seed alone — the fault plane's reproducibility story.
func TestScheduleDeterministic(t *testing.T) {
	run := func(seed int64) ([]int, []int) {
		var order []int
		s := NewTestSchedule(seed, 4)
		trace := s.Run(func(cpu int, yield func()) {
			for i := 0; i < 5; i++ {
				order = append(order, cpu) // serialized: no race
				yield()
			}
		})
		return trace, order
	}
	t1, o1 := run(42)
	t2, o2 := run(42)
	if len(t1) == 0 || len(t1) != len(t2) {
		t.Fatalf("trace lengths %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverged at %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("execution order diverged at %d", i)
		}
	}
	// A different seed picks a different interleaving (with 4 CPUs and
	// 20+ decision points, identical traces would mean the seed is dead).
	t3, _ := run(1042)
	same := len(t3) == len(t1)
	if same {
		for i := range t1 {
			if t1[i] != t3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 1042 produced identical interleavings")
	}
}

// TestScheduleSerializes checks the single-slot invariant: bodies never
// overlap, so unsynchronized shared state sees no lost updates.
func TestScheduleSerializes(t *testing.T) {
	counter := 0
	inBody := 0
	s := NewTestSchedule(7, 8)
	s.Run(func(cpu int, yield func()) {
		for i := 0; i < 1000; i++ {
			inBody++
			if inBody != 1 {
				t.Errorf("two CPUs in the critical region")
			}
			counter++
			inBody--
			if i%100 == 0 {
				yield()
			}
		}
	})
	if counter != 8000 {
		t.Fatalf("counter = %d (lost updates)", counter)
	}
}

// TestScheduleEveryCPURuns: the pick function must not starve a CPU
// forever — every identity appears in the trace.
func TestScheduleEveryCPURuns(t *testing.T) {
	const n = 6
	seen := make([]bool, n)
	s := NewTestSchedule(3, n)
	s.Run(func(cpu int, yield func()) {
		seen[cpu] = true
		yield()
	})
	for cpu, ok := range seen {
		if !ok {
			t.Fatalf("cpu %d never ran", cpu)
		}
	}
}
