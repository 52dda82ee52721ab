package evalrig

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The connection-churn workload (E13): a pool of load generators drives
// many short-lived TCP connect/request/response/close cycles at one
// server node, the regime that stresses connection lifecycle — listen
// queues, ephemeral ports, TIME_WAIT — rather than bulk data movement.

// ChurnOptions parameterizes ChurnTCP.
type ChurnOptions struct {
	Conns    int    // total connect/request/close cycles across all generators
	Workers  int    // concurrent workers per generator node
	ReqBytes int    // request size; the response echoes it back
	Port     uint16 // server port
	Backlog  int    // server listen backlog
	Seed     int64  // seeds every per-connection payload (reproducibility)
}

func (o *ChurnOptions) defaults() {
	if o.Conns <= 0 {
		o.Conns = 100
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.ReqBytes <= 0 {
		o.ReqBytes = 64
	}
	if o.Port == 0 {
		o.Port = 9000
	}
	if o.Backlog <= 0 {
		o.Backlog = 128
	}
}

// ChurnResult is one churn measurement.
type ChurnResult struct {
	Conns       int     // cycles completed with a verified echo
	Failed      int     // cycles that errored (connect, I/O, or bad echo)
	Seconds     float64 // wall time over the whole run
	ConnsPerSec float64
	P50Usec     float64 // median connect→response latency
	P99Usec     float64 // tail connect→response latency

	// CheckSum is the XOR of every completed connection's payload
	// CRC-32.  XOR is order-independent, so two runs with the same seed
	// and connection count produce the same sum no matter how the
	// scheduler interleaved the workers — the reproducibility assertion
	// the chaos tests make.
	CheckSum uint32

	// Errors samples the first few cycle failures (diagnosis, not
	// accounting — Failed is the count).
	Errors []string
}

// churnPayload builds connection i's request deterministically from the
// run seed; both ends of the verification derive from it alone.
func churnPayload(seed int64, i, n int) []byte {
	rng := rand.New(rand.NewSource(seed ^ int64(i)*0x9e3779b9))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// tickets is the closed-loop worker pool behind ChurnTCP and HTTPGet: a
// shared counter hands out operation indices 0 … total-1, every worker
// draws until they run out, and record folds each outcome into one
// tally under one lock.
type tickets struct {
	total int
	what  string // names one operation in the sampled errors ("conn", "req")
	next  atomic.Int64

	mu        sync.Mutex
	done      int      // operations that succeeded
	failed    int      // operations that errored (counted, not retried)
	checkSum  uint32   // XOR of the successes' sums (order-independent)
	bytes     uint64   // payload bytes the successes moved
	errors    []string // the first eight failures (diagnosis, not accounting)
	latencies []float64
	seconds   float64 // wall time over the whole run
}

// draw hands out the next ticket; ok is false once they have run out.
func (t *tickets) draw() (i int, ok bool) {
	i = int(t.next.Add(1) - 1)
	return i, i < t.total
}

// record tallies ticket i, started at start: a failure is counted and
// sampled, a success adds its latency, checksum contribution and bytes.
func (t *tickets) record(i int, start time.Time, sum uint32, nbytes int, err error) {
	usec := float64(time.Since(start).Microseconds())
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.failed++
		if len(t.errors) < 8 {
			t.errors = append(t.errors, fmt.Sprintf("%s %d: %v", t.what, i, err))
		}
		return
	}
	t.done++
	t.checkSum ^= sum
	t.bytes += uint64(nbytes)
	t.latencies = append(t.latencies, usec)
}

// run starts workers goroutines of body on every generator node and
// waits for the tickets to run out.
func (t *tickets) run(gens []*Node, workers int, body func(g *Node)) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, g := range gens {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(g)
			}()
		}
	}
	wg.Wait()
	t.seconds = time.Since(start).Seconds()
}

// rate is successes per second over the run.
func (t *tickets) rate() float64 {
	if t.seconds <= 0 {
		return 0
	}
	return float64(t.done) / t.seconds
}

// ChurnTCP runs the churn workload against Nodes[0] and reports
// throughput, tail latency, and the verification checksum.  Cycles that
// fail are counted, not retried.
func ChurnTCP(c *Cluster, o ChurnOptions) (ChurnResult, error) {
	o.defaults()
	srv := c.Server()
	gens := c.Generators()
	if len(gens) == 0 {
		return ChurnResult{}, fmt.Errorf("evalrig: churn needs at least one generator node")
	}

	// Server: listener plus one echo handler per accepted connection.
	// The server closes first, so TIME_WAIT accumulates server-side —
	// deliberately, that is the lifecycle stress under test.
	lfd, err := listen(srv, o.Port, o.Backlog)
	if err != nil {
		return ChurnResult{}, fmt.Errorf("evalrig: churn server setup: %w", err)
	}
	served := acceptLoop(srv, lfd, -1, func(fd int) {
		defer closeFD(srv, fd)
		buf := make([]byte, o.ReqBytes)
		if readFull(srv, fd, buf) == nil {
			_ = writeAll(srv, fd, buf)
		}
	})

	t := &tickets{total: o.Conns, what: "conn"}
	t.run(gens, o.Workers, func(g *Node) {
		buf := make([]byte, o.ReqBytes)
		for i, ok := t.draw(); ok; i, ok = t.draw() {
			payload := churnPayload(o.Seed, i, o.ReqBytes)
			start := time.Now()
			sum, err := churnOne(g, srv.IP, o.Port, payload, buf)
			t.record(i, start, sum, 0, err)
		}
	})

	// Tear the server down: closing the listener ends the accept loop
	// (and aborts anything still queued on it).
	closeFD(srv, lfd)
	<-served

	res := ChurnResult{
		Conns: t.done, Failed: t.failed, Seconds: t.seconds, ConnsPerSec: t.rate(),
		CheckSum: t.checkSum, Errors: t.errors,
	}
	res.P50Usec, res.P99Usec = percentiles(t.latencies)
	return res, nil
}

// churnOne runs one connect/request/response/close cycle and returns
// the verified payload CRC.
func churnOne(g *Node, serverIP [4]byte, port uint16, payload, buf []byte) (uint32, error) {
	fd, err := dial(g, serverIP, port, "", 0)
	if err != nil {
		return 0, err
	}
	defer closeFD(g, fd)
	if err := writeAll(g, fd, payload); err != nil {
		return 0, err
	}
	buf = buf[:len(payload)]
	if err := readFull(g, fd, buf); err != nil {
		return 0, fmt.Errorf("evalrig: churn echo: %w", err)
	}
	want := crc32.ChecksumIEEE(payload)
	if got := crc32.ChecksumIEEE(buf); got != want {
		return 0, fmt.Errorf("evalrig: churn echo corrupted (crc %08x != %08x)", got, want)
	}
	return want, nil
}

// percentiles returns the p50 and p99 of a latency sample.
func percentiles(v []float64) (p50, p99 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	sort.Float64s(v)
	at := func(q float64) float64 {
		i := int(q * float64(len(v)-1))
		return v[i]
	}
	return at(0.50), at(0.99)
}

// ConcurrentCeiling opens connections to Nodes[0] and holds every one
// of them until target connections are live or an open fails, reporting
// how many were reached — the concurrent-connection ceiling.  All held
// connections are torn down before returning.
func ConcurrentCeiling(c *Cluster, target int, port uint16) (int, error) {
	srv := c.Server()
	gens := c.Generators()
	if len(gens) == 0 {
		return 0, fmt.Errorf("evalrig: ceiling needs at least one generator node")
	}
	lfd, err := listen(srv, port, 512)
	if err != nil {
		return 0, fmt.Errorf("evalrig: ceiling server setup: %w", err)
	}

	// The server parks every accepted connection; the handler side holds
	// the socket without reading (the connections are idle by design).
	var held []int
	var heldMu sync.Mutex
	served := acceptLoop(srv, lfd, -1, func(fd int) {
		heldMu.Lock()
		held = append(held, fd)
		heldMu.Unlock()
	})

	open := make([]int, 0, target)
	for len(open) < target {
		fd, err := dial(gens[len(open)%len(gens)], srv.IP, port, "", 0)
		if err != nil {
			break
		}
		open = append(open, fd)
	}

	for i, fd := range open {
		closeFD(gens[i%len(gens)], fd)
	}
	closeFD(srv, lfd)
	<-served
	for _, fd := range held {
		closeFD(srv, fd)
	}
	return len(open), nil
}
