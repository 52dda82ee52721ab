package smp

import "sync"

// TestSchedule is a seeded, deterministic concurrency harness: it
// drives N virtual CPUs through one sequential interleaving chosen
// entirely by a seed, the same reproducibility contract the fault plane
// has (internal/faults: every decision is a pure function of the seed
// and an event index, no shared RNG, so a failing run is replayed from
// nothing but its seed).
//
// Each virtual CPU is a goroutine running the caller's body; exactly
// one runs at a time.  At every yield point the harness picks the next
// runnable CPU by hashing (seed, step) — splitmix64, the fault plane's
// mixer — modulo the runnable set, and records the pick.  Two runs of
// the same (seed, n, body) therefore execute the identical
// interleaving, and sweeping seeds sweeps interleavings: a lock-order
// or lost-wakeup bug that only bites under one ordering is found by a
// seed loop and then pinned as a regression test with that seed, which
// is how the SMP tests in internal/freebsd/net use this.
//
// The harness serializes the bodies, so it exercises orderings, not
// data races — run the same bodies in parallel under -race for those.
type TestSchedule struct {
	seed uint64
	n    int

	mu    sync.Mutex
	cond  *sync.Cond
	cur   int // CPU currently allowed to run
	done  []bool
	live  int
	step  uint64
	trace []int
}

// NewTestSchedule prepares a harness for n virtual CPUs driven by seed.
func NewTestSchedule(seed int64, n int) *TestSchedule {
	if n < 1 {
		n = 1
	}
	s := &TestSchedule{seed: uint64(seed), n: n, done: make([]bool, n), live: n, cur: -1}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Run executes body once per virtual CPU (identities 0..n-1) under the
// seeded interleaving and returns the recorded schedule: the sequence
// of CPU picks, one per yield point plus one per CPU exit.  The body
// must call yield() at every point where an interleaving decision
// should be possible — typically before and after each lock
// acquisition under test.  Run blocks until every CPU's body returns.
func (s *TestSchedule) Run(body func(cpu int, yield func())) []int {
	var wg sync.WaitGroup
	for cpu := 0; cpu < s.n; cpu++ {
		cpu := cpu
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.waitTurn(cpu)
			body(cpu, func() { s.yield(cpu) })
			s.exit(cpu)
		}()
	}
	s.mu.Lock()
	s.advance()
	s.mu.Unlock()
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.trace...)
}

// waitTurn blocks cpu until the schedule hands it the (single) slot.
func (s *TestSchedule) waitTurn(cpu int) {
	s.mu.Lock()
	for s.cur != cpu {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// yield is one interleaving decision point: the running CPU offers the
// slot back and blocks until the schedule picks it again (possibly
// immediately — the pick is over every runnable CPU, itself included).
func (s *TestSchedule) yield(cpu int) {
	s.mu.Lock()
	s.advance()
	for s.cur != cpu {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// exit retires cpu and hands the slot to a survivor.
func (s *TestSchedule) exit(cpu int) {
	s.mu.Lock()
	s.done[cpu] = true
	s.live--
	s.advance()
	s.mu.Unlock()
}

// advance picks the next CPU — a pure function of (seed, step) over the
// runnable set, recorded in the trace.  Called with mu held.
func (s *TestSchedule) advance() {
	if s.live == 0 {
		s.cur = -1
		s.cond.Broadcast()
		return
	}
	pick := int(schedMix(s.seed, s.step) % uint64(s.live))
	s.step++
	for cpu := 0; cpu < s.n; cpu++ {
		if s.done[cpu] {
			continue
		}
		if pick == 0 {
			s.cur = cpu
			s.trace = append(s.trace, cpu)
			s.cond.Broadcast()
			return
		}
		pick--
	}
}

// schedMix is the splitmix64-style finalizer over (seed, step) — the
// harness's entire source of randomness, identical in shape to the
// fault plane's mixer so the two planes share one reproducibility
// story.
func schedMix(seed, idx uint64) uint64 {
	x := seed ^ (idx+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
