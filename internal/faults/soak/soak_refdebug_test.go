//go:build oskitrefdebug

package soak

// The page-pin ledger regression, run under the oskitrefdebug build:
// serving files zero-copy while the wire forces retransmissions is the
// hardest lifecycle the sendfile export faces — every lost segment
// stretches a pinned page's life past the request that mapped it, and
// every duplicate ACK is a chance to over-release the external mbuf
// holding it.  The refdebug ledger turns any over-release or
// resurrection on the COM objects into a panic, the pin gauge proves
// no page survives the run, and the allocation pairs prove no release
// path went uncounted.  Teardown (Halt: unmount, stack teardown,
// machine halt) runs inside the test so a pin leaked to teardown
// panics here, not in some later rig.

import (
	"testing"
	"time"

	"oskit/internal/evalrig"
	"oskit/internal/faults"
)

func TestHTTPPinLedgerUnderRetransmits(t *testing.T) {
	c, err := evalrig.NewCluster(evalrig.OSKit, 2, soakTick, evalrig.Options{
		FastPath: true, DiskSectors: 16384,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	opts := evalrig.HTTPOptions{
		Requests: 24, Workers: 2, Files: 2, FileBytes: 20000,
		Seed: 42, Port: 5900,
	}
	if err := evalrig.PopulateHTTP(c.Server(), opts); err != nil {
		t.Fatal(err)
	}
	// Heavy loss with bursts: nearly every window loses a segment, so
	// pinned pages routinely outlive their request and are re-sent from
	// the retransmit queue's shared ext-mbuf references.
	in := c.EnableFaults(faults.Plan{Seed: 5, WireDrop: 0.15, WireBurst: 2})
	t.Logf("plan: %s", in.FaultPlan())

	res, err := RunHTTP(c, opts, 120*time.Second)
	if err != nil {
		t.Fatalf("http under retransmits (reproduce with plan %q): %v", in.FaultPlan(), err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d requests failed (plan %q): %v",
			res.Failed, res.Failed+res.Requests, in.FaultPlan(), res.Errors)
	}
	if in.FaultsInjected() == 0 {
		t.Fatal("the loss plan injected nothing — the retransmit path was never exercised")
	}
	waitPinsDrained(t, c.Server())
	srv := c.Server()
	pins, _ := srv.Stat("netbsd_fs", "bcache.pins")
	unpins, _ := srv.Stat("netbsd_fs", "bcache.unpins")
	if pins == 0 {
		t.Fatal("no page was ever pinned — the zero-copy path never engaged")
	}
	if pins != unpins {
		t.Errorf("pin ledger imbalanced after drain: pins=%d unpins=%d", pins, unpins)
	}
	for i, n := range c.Nodes {
		for _, bad := range Imbalances(n) {
			t.Errorf("node %d (%s): %s", i, n.Machine.Name, bad)
		}
	}
	// Teardown under the ledger: an over-release on any COM object the
	// serving path touched panics inside Halt.
	c.Halt()
}

// TestSMPChurnHaltLedger runs connection churn on a 4-CPU fast-path
// cluster — four CPUs sharing each node's global-lock allocators — and
// tears it down under the refdebug ledger.  Every allocation pair must
// balance on every node with no step between traffic and Halt; an
// over-release or a double free panics or fails here.
func TestSMPChurnHaltLedger(t *testing.T) {
	c, err := evalrig.NewCluster(evalrig.OSKit, 3, soakTick, evalrig.Options{
		FastPath: true, CPUs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	res, err := evalrig.ChurnTCP(c, evalrig.ChurnOptions{
		Conns: 96, Workers: 3, ReqBytes: 256, Port: 5901, Seed: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d churn cycles failed: %v", res.Failed, res.Failed+res.Conns, res.Errors)
	}
	for i, n := range c.Nodes {
		for _, bad := range Imbalances(n) {
			t.Errorf("node %d (%s): %s", i, n.Machine.Name, bad)
		}
	}
	// Halt inside the test, under the refdebug ledger.
	c.Halt()
}
