// Package soak is the chaos/soak harness over the fault-injection
// plane: it runs the paper's evaluation workloads — the Table-1 ttcp
// transfer and an FFS-over-IDE read-write job — to completion under
// hostile fault regimes, and supplies the invariants every such run is
// checked against (end-to-end data integrity, balanced allocation
// counters, reproducibility of the fault sequence from its seed).
//
// The harness is deliberately thin: regimes are just named Plans, the
// workloads are the evalrig's own, and the assertions read the same
// com.Stats counters any client of the kit reads.  A failing soak logs
// only its plan string; re-running with that string replays the
// identical fault sequence (see internal/faults).
package soak

import (
	"fmt"
	"time"

	"oskit/internal/evalrig"
	"oskit/internal/faults"
)

// Regime is one named fault plan.
type Regime struct {
	Name string
	Plan faults.Plan
}

// The two regimes every soak shares: the control run, and a wire doing
// everything short of losing frames outright — corruption, duplication,
// reordering, receive-ring overruns and clock jitter together.
var (
	clean       = Regime{Name: "clean", Plan: faults.Plan{Seed: 1}}
	hostileWire = Regime{Name: "hostile-wire", Plan: faults.Plan{
		Seed: 3, WireCorrupt: 0.05, WireDup: 0.05, WireReorder: 0.05,
		NICOverflow: 0.05, TimerJitter: 0.10}}
)

// TTCPRegimes are the fault regimes the ttcp soak runs under.  Each
// must let the transfer complete with the byte stream intact: TCP's
// checksums and retransmission are what is on trial.  Besides the
// shared pair, loss-burst-diskerr is 20% burst frame loss plus a
// disk-error/torn-write rate (the acceptance regime; the disk knobs
// drive the disk soak and are inert on a diskless rig).
func TTCPRegimes() []Regime {
	return []Regime{clean, {Name: "loss-burst-diskerr", Plan: faults.Plan{
		Seed: 2, WireDrop: 0.20, WireBurst: 4, DiskErr: 0.05, DiskTorn: 0.02}}, hostileWire}
}

// RunTTCP drives the checksummed Table-1 transfer under whatever faults
// are already enabled on the pair, with a watchdog: a transfer that a
// fault regime wedges (rather than merely slows) fails loudly instead
// of hanging the suite.  On success the two CRC-32 sums are equal by
// construction of the return, so callers assert err == nil.
func RunTTCP(p *evalrig.Pair, blocks, blockSize int, port uint16, seed int64, timeout time.Duration) error {
	_, err := watchdog("ttcp", timeout, func() (struct{}, error) {
		sent, recvd, err := evalrig.TTCPVerified(p, blocks, blockSize, port, seed)
		if err == nil && sent != recvd {
			err = fmt.Errorf("soak: checksum mismatch: sent %08x, received %08x", sent, recvd)
		}
		return struct{}{}, err
	})
	return err
}

// watchdog runs one workload to completion on its own goroutine and
// returns what it returned — unless it has not finished within timeout,
// in which case the run is reported wedged instead of hanging the suite.
func watchdog[T any](what string, timeout time.Duration, run func() (T, error)) (T, error) {
	type out struct {
		res T
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := run()
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	//oskit:allow detsource -- hang watchdog only; fires after the workload is already wedged, never on a decision path
	case <-time.After(timeout):
		var none T
		return none, fmt.Errorf("soak: %s did not complete within %v", what, timeout)
	}
}

// ChurnRegimes are the fault regimes the cluster connection-churn soak
// runs under.  Churn multiplies the *handshake and teardown* count
// rather than the byte count, so a hostile wire here stresses SYN
// retransmission, FIN recovery, and TIME_WAIT recycling instead of the
// bulk-transfer window.
func ChurnRegimes() []Regime { return []Regime{clean, hostileWire} }

// RunClusterChurn drives the E13 connection churn on a switched cluster
// under whatever faults are already enabled, with the same hang
// watchdog as the ttcp soak: a regime that wedges the churn fails
// loudly instead of hanging the suite.
func RunClusterChurn(c *evalrig.Cluster, opts evalrig.ChurnOptions, timeout time.Duration) (evalrig.ChurnResult, error) {
	return watchdog("churn", timeout, func() (evalrig.ChurnResult, error) { return evalrig.ChurnTCP(c, opts) })
}

// HTTPRegimes are the fault regimes the HTTP file-serving soak (E15)
// runs under.  File serving stacks a second fault surface on top of the
// wire: the disk under the buffer cache, whose injected errors the
// serving path must absorb through its op-level retry contract while
// the zero-copy machinery keeps pages pinned across retransmissions —
// on the hostile wire every retransmission stretches the life of the
// pinned pages riding the lost segments.  loss-burst-diskerr is burst
// frame loss plus disk errors and torn writes under the file system
// (the acceptance regime for the serving path's two-sided retry story).
func HTTPRegimes() []Regime {
	return []Regime{clean, hostileWire, {Name: "loss-burst-diskerr", Plan: faults.Plan{
		Seed: 2, WireDrop: 0.10, WireBurst: 3, DiskErr: 0.05, DiskTorn: 0.02}}}
}

// RunHTTP drives the E15 HTTP file-serving workload on a cluster under
// whatever faults are already enabled, with the same hang watchdog as
// the other soaks: a regime that wedges the workload fails loudly
// instead of hanging the suite.
func RunHTTP(c *evalrig.Cluster, opts evalrig.HTTPOptions, timeout time.Duration) (evalrig.HTTPResult, error) {
	return watchdog("http workload", timeout, func() (evalrig.HTTPResult, error) { return evalrig.HTTPGet(c, opts) })
}

// AllocPair names one alloc/free counter pair in one stats set.
type AllocPair struct {
	Set, Alloc, Free string
}

// AllocPairs are the kit's allocation counter pairs: mbufs and mbuf
// clusters (freebsd_net), BSD kernel malloc (bsd_malloc), the kernel
// arena (kern), the Linux driver glue's kmalloc (linux_dev), and the
// QuickPool allocator service of the fast-path configuration
// (quickpool; its stats set exists only on fast-path nodes, so the
// pair is skipped everywhere else), and the buffer-cache page pins of
// the zero-copy sendfile path (netbsd_fs; only on nodes that mounted a
// file system).  For pins the invariant reads: every unpin matches a
// pin, so a transmit completion can never release a page the sendfile
// export didn't pin.
func AllocPairs() []AllocPair {
	return []AllocPair{
		{"freebsd_net", "mbuf.allocs", "mbuf.frees"},
		{"freebsd_net", "mbuf.cluster_allocs", "mbuf.cluster_frees"},
		{"bsd_malloc", "malloc.allocs", "malloc.frees"},
		{"kern", "lmm.allocs", "lmm.frees"},
		{"linux_dev", "kmalloc.allocs", "kmalloc.frees"},
		{"quickpool", "qp.allocs", "qp.frees"},
		{"netbsd_fs", "bcache.pins", "bcache.unpins"},
	}
}

// Imbalances checks every allocation counter pair present on the node
// and reports violations of the balance invariant: every release path
// is counted, so frees can never lead allocs — not even after a fault
// regime has failed allocations and error paths have torn down
// half-built chains.  Pairs whose stats set the configuration does not
// register are skipped; a node that exposes none of them is reported,
// since that means the check looked at nothing.
func Imbalances(n *evalrig.Node) []string {
	var bad []string
	checked := 0
	for _, p := range AllocPairs() {
		// Frees first: the node is live and each Stat is its own
		// snapshot, so pairs completed between the two reads must land
		// on the allocs side of the comparison.
		frees, ok2 := n.Stat(p.Set, p.Free)
		allocs, ok1 := n.Stat(p.Set, p.Alloc)
		if !ok1 || !ok2 {
			continue
		}
		checked++
		if frees > allocs {
			bad = append(bad, fmt.Sprintf("%s: %s = %d > %s = %d",
				p.Set, p.Free, frees, p.Alloc, allocs))
		}
	}
	if checked == 0 {
		bad = append(bad, "no allocation counter pairs discoverable on the node")
	}
	return bad
}
