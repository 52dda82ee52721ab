package evalrig

import (
	"fmt"
	"time"

	"oskit/internal/faults"
	"oskit/internal/hw"
)

// Cluster is the N-node testbed: one learning Ethernet switch with a
// booted machine on every port, scaling the paper's two-PC rig to the
// switched-cluster shape the connection-churn evaluation (E13) needs.
// By convention Nodes[0] is the server and Nodes[1:] are the load
// generators; nothing in the rig enforces the roles.
//
// Every node is Serialized at boot: cluster workloads drive a single
// node from many process-level goroutines (an accept loop plus one
// handler per live connection on the server; a worker pool on each
// generator), so all component entries go through Node.Do.
type Cluster struct {
	Cfg    Config
	Switch *hw.EtherSwitch
	Nodes  []*Node

	// Faults is the cluster's fault injector, nil until EnableFaults.
	Faults *faults.Injector
}

// NewCluster boots n machines (2 ≤ n ≤ 64) on one switch, addressed
// 10.2.0.1 … 10.2.0.n, all running the same configuration.
func NewCluster(cfg Config, n int, tickInterval time.Duration, opts Options) (*Cluster, error) {
	if n < 2 || n > 64 {
		return nil, fmt.Errorf("evalrig: cluster size %d out of range [2,64]", n)
	}
	c := &Cluster{Cfg: cfg, Switch: hw.NewEtherSwitch()}
	for i := 0; i < n; i++ {
		nodeOpts := opts
		if i != 0 {
			// Only the conventional server node carries a disk; load
			// generators are pure network machines.
			nodeOpts.DiskSectors = 0
		}
		node, err := newNode(cfg, c.Switch, byte(i+1), [4]byte{10, 2, 0, byte(i + 1)}, tickInterval, nodeOpts)
		if err != nil {
			c.Halt()
			return nil, fmt.Errorf("evalrig: cluster node %d: %w", i, err)
		}
		// A BSD-stack node on a multi-CPU machine carries its own
		// stack lock (E14) — serializing the whole node would also
		// serialize its drivers and clients.  The Linux baseline and
		// every uniprocessor node keep the §4.7.4 node lock.
		if opts.CPUs <= 1 || cfg == Linux {
			node.Serialize()
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// Server returns the conventional server node (Nodes[0]).
func (c *Cluster) Server() *Node { return c.Nodes[0] }

// Generators returns the conventional load-generator nodes (Nodes[1:]).
func (c *Cluster) Generators() []*Node { return c.Nodes[1:] }

// Halt powers every machine off.
func (c *Cluster) Halt() {
	haltRig(c.Faults, c.Nodes...)
	c.Faults = nil
	c.Nodes = nil
}

// EnableFaults weaves a fault-injection plan through the whole cluster:
// the switch fabric (loss, corruption, duplication, reordering — the
// same WireFaultHook regime as a Pair's), every NIC's
// receive ring, every machine's clock, and every node's memory service.
// Call once, after NewCluster and before traffic.  The cluster owns the
// injector; Halt releases it.
func (c *Cluster) EnableFaults(plan faults.Plan) *faults.Injector {
	names := make([]string, len(c.Nodes))
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	c.Faults = wireFaults(plan, c.Switch, c.Nodes, names)
	return c.Faults
}
