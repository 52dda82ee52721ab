package evalrig

import (
	"testing"
	"time"

	"oskit/internal/hw"
)

// TestClusterBootTeardown boots every configuration as a small switched
// cluster and proves cross-port traffic flows: the smoke test for the
// N-node generalization of the rig.
func TestClusterBootTeardown(t *testing.T) {
	for _, cfg := range Configs {
		cfg := cfg
		t.Run(string(cfg), func(t *testing.T) {
			c, err := NewCluster(cfg, 3, time.Millisecond, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Halt()
			if got := c.Switch.Ports(); got != 3 {
				t.Fatalf("switch has %d ports, want 3", got)
			}
			// Every node must sit on a switch port, not a shared wire.
			for i, n := range c.Nodes {
				if _, ok := hw.SegmentOfForTest(n.NIC()).(*hw.SwitchPort); !ok {
					t.Fatalf("node %d not attached to a switch port", i)
				}
			}
			res, err := ChurnTCP(c, ChurnOptions{Conns: 8, Workers: 1, ReqBytes: 32, Port: 9001})
			if err != nil {
				t.Fatal(err)
			}
			if res.Conns != 8 || res.Failed != 0 {
				t.Fatalf("smoke churn: %d ok, %d failed", res.Conns, res.Failed)
			}
		})
	}
}

// TestClusterSwitchLearns runs traffic and checks the fabric behaved
// like a learning switch: every station was learned, frames were
// forwarded point-to-point, and PortOf maps each node's MAC to the port
// it was booted on.
func TestClusterSwitchLearns(t *testing.T) {
	c, err := NewCluster(OSKit, 4, time.Millisecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	// The generators draw connections from one ticket counter, so which
	// of them transmits in a 12-connection round is the scheduler's
	// choice, and a station that never transmits cannot be learned: churn
	// until every node has been heard from.
	for round := 0; round < 32 && (round == 0 || c.Switch.Stats().Stations < 4); round++ {
		if _, err := ChurnTCP(c, ChurnOptions{Conns: 12, Workers: 1, ReqBytes: 32, Port: 9002 + uint16(round)}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Switch.Stats()
	if st.Stations < 4 {
		t.Errorf("switch learned %d stations, want all 4", st.Stations)
	}
	if st.Forwarded == 0 {
		t.Errorf("no frames forwarded point-to-point: %+v", st)
	}
	for i := range c.Nodes {
		mac := [6]byte{2, 0, 0, 2, 0, byte(i + 1)}
		if got := c.Switch.PortOf(mac); got != i {
			t.Errorf("node %d MAC learned on port %d", i, got)
		}
	}
}

// TestClusterChurnReproducible runs the same seeded churn twice and
// requires identical verification checksums with zero failures: the
// workload's result must be a function of (seed, connection count),
// not of how the scheduler interleaved the worker pool.  The -race
// runs of the suite make this double as the churn data-race check.
func TestClusterChurnReproducible(t *testing.T) {
	run := func(port uint16) ChurnResult {
		c, err := NewCluster(OSKit, 3, time.Millisecond, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Halt()
		res, err := ChurnTCP(c, ChurnOptions{
			Conns: 40, Workers: 2, ReqBytes: 128, Port: port, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(9003)
	r2 := run(9004)
	if r1.Failed != 0 || r2.Failed != 0 {
		t.Fatalf("clean churn failed connections: %d and %d", r1.Failed, r2.Failed)
	}
	if r1.Conns != 40 || r2.Conns != 40 {
		t.Fatalf("completed %d and %d connections, want 40", r1.Conns, r2.Conns)
	}
	if r1.CheckSum != r2.CheckSum {
		t.Fatalf("same seed, different checksums: %08x vs %08x", r1.CheckSum, r2.CheckSum)
	}
}

// TestConcurrentCeiling holds a batch of connections open across the
// cluster and requires every one of them to be reachable: the rig's
// concurrent-connection floor for the E13 ceiling measurement.
func TestConcurrentCeiling(t *testing.T) {
	c, err := NewCluster(OSKit, 3, time.Millisecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	const target = 32
	got, err := ConcurrentCeiling(c, target, 9005)
	if err != nil {
		t.Fatal(err)
	}
	if got < target {
		t.Fatalf("ceiling = %d, want %d held connections", got, target)
	}
}
