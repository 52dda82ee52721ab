package evalrig

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestSMPClusterChurn is the rig-level race regression for E14: a
// 4-node cluster on 4-CPU machines with no node lock (each stack's own
// exclusion — the BSD stack lock, the Linux baseline's cli — carries
// every thread), driven through the full connection-churn lifecycle.
// Runs in the tier-1 -race list: any missing or misordered lock in the
// SMP paths shows up here as a race report, a wedge, or a corrupted
// echo.  The OSKit configuration runs both of its receive paths: the
// stock donor ISR on its single line and the multi-ring polled fast
// path.
func TestSMPClusterChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		opts Options
	}{
		{"linux", Linux, Options{CPUs: 4}},
		{"freebsd", FreeBSD, Options{CPUs: 4}},
		{"oskit", OSKit, Options{CPUs: 4}},
		{"oskit-fastpath", OSKit, Options{CPUs: 4, FastPath: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(tc.cfg, 4, time.Millisecond, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Halt()
			for i, n := range c.Nodes {
				if got := n.Machine.CPUs(); got != 4 {
					t.Fatalf("node %d booted with %d CPUs, want 4", i, got)
				}
			}
			res, err := ChurnTCP(c, ChurnOptions{Conns: 48, Workers: 3, ReqBytes: 128, Port: 9050, Seed: 14})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("SMP churn: %d of %d cycles failed: %v", res.Failed, res.Conns+res.Failed, res.Errors)
			}
			if res.Conns != 48 {
				t.Fatalf("SMP churn completed %d cycles, want 48", res.Conns)
			}
		})
	}
}

// countCli interposes the node's process-level interrupt-disable service
// (a function field of the environment, §4.2) with a counter.
func countCli(n *Node, clis *atomic.Int64) {
	disable := n.Kernel.Env.IntrDisable
	n.Kernel.Env.IntrDisable = func() { clis.Add(1); disable() }
}

// TestSMPNetworkPathTakesNoCli pins the mechanism, by counter rather than
// wall time: on a multi-CPU OSKit node both glue layers of the network
// path are under the SMP discipline, so bulk transfer and connection
// churn — stock path and fast path — complete without one process-level
// cli.  One cli taken under the stack lock is half of an ABBA against
// the ISR (cli, then that lock), so the count must be zero, not small.
// No file system is mounted: its glue legitimately keeps splbio.
func TestSMPNetworkPathTakesNoCli(t *testing.T) {
	for _, fast := range []bool{false, true} {
		opts := Options{CPUs: 4, FastPath: fast}
		t.Run(fmt.Sprintf("fastpath=%v", fast), func(t *testing.T) {
			var clis atomic.Int64
			p, err := NewPairOpts(OSKit, time.Millisecond, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Halt()
			countCli(p.Sender, &clis)
			countCli(p.Receiver, &clis)
			if _, err := TTCP(p, 64, 4096, 5020); err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(OSKit, 3, time.Millisecond, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Halt()
			for _, n := range c.Nodes {
				countCli(n, &clis)
			}
			res, err := ChurnTCP(c, ChurnOptions{Conns: 24, Workers: 2, ReqBytes: 96, Port: 9052, Seed: 19})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("churn: %d failures: %v", res.Failed, res.Errors)
			}
			if n := clis.Load(); n != 0 {
				t.Fatalf("the network path took process-level cli %d times on 4-CPU nodes, want 0", n)
			}
		})
	}
}

// TestSMPChurnChecksumStable re-runs a seeded SMP churn and checks the
// order-independent payload checksum matches a uniprocessor run of the
// same seed: whatever the CPUs interleave, the data delivered is the
// same data.
func TestSMPChurnChecksumStable(t *testing.T) {
	sum := func(cpus int) uint32 {
		t.Helper()
		c, err := NewCluster(FreeBSD, 3, time.Millisecond, Options{CPUs: cpus})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Halt()
		res, err := ChurnTCP(c, ChurnOptions{Conns: 24, Workers: 2, ReqBytes: 96, Port: 9051, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("churn at %d CPUs: %d failures: %v", cpus, res.Failed, res.Errors)
		}
		return res.CheckSum
	}
	up := sum(1)
	mp := sum(4)
	if up != mp {
		t.Fatalf("checksum diverged: 1-CPU %08x vs 4-CPU %08x", up, mp)
	}
}
