package evalrig

import (
	"oskit/internal/com"
	"oskit/internal/faults"
	"oskit/internal/hw"
)

// EnableFaults weaves a fault-injection plan through the whole testbed:
// the pair's switch (loss, corruption, duplication, reordering), each
// NIC's receive ring (forced overruns), each machine's clock (jitter),
// and each node's memory service (allocation failure, via the §4.2.1
// overridable-functions seam that the LMM default allocator, the BSD
// malloc page refill and the Linux kmalloc buckets all draw from).
//
// The injector and its statistics are registered in both nodes'
// services registries — under com.FaultIID and com.StatsIID — so any
// client of either node can discover what regime the run was subjected
// to, exactly the way it discovers other statistics (§4.2.2).
//
// Call once, after NewPair/NewMixedPair and before traffic: the wiring
// deliberately happens after boot so that setup itself cannot be
// failed.  The pair owns the injector; Halt releases it.  Point names
// are fixed ("wire.drop", "nic.rx.send", "disk.<node>.err", …) so a
// soak failure's trace reads the same across runs.
func (p *Pair) EnableFaults(plan faults.Plan) *faults.Injector {
	p.Faults = wireFaults(plan, p.Switch, []*Node{p.Sender, p.Receiver}, []string{"send", "recv"})
	return p.Faults
}

// wireFaults is the fault wiring under Pair.EnableFaults and
// Cluster.EnableFaults: one injector for plan, hooked into the rig's
// switch and into each node under its recorded decision-stream name.
func wireFaults(plan faults.Plan, sw *hw.EtherSwitch, nodes []*Node, names []string) *faults.Injector {
	in := faults.NewInjector(plan)
	sw.SetFaultHook(in.WireHook())
	for i, n := range nodes {
		n.EnableFaults(in, names[i])
	}
	return in
}

// EnableFaults wires one node's local fault points (receive ring,
// clock, memory service) to the injector and registers the injector in
// the node's services registry.  name distinguishes the node's decision
// streams ("send", "recv", or a rig-chosen label for single machines).
func (n *Node) EnableFaults(in *faults.Injector, name string) {
	n.nic.SetRxFaultHook(in.NICRxHook("nic.rx." + name))
	n.Machine.Timer.SetFaultHook(in.TimerHook("timer." + name))
	in.WrapAlloc(n.Kernel.Env, "alloc."+name)
	if n.QP != nil {
		// Fast-path nodes also fail allocations at the QuickPool seam,
		// so the chaos harness covers the allocator the packet paths
		// actually draw from.
		n.QP.SetAllocFaultHook(in.AllocFailFunc("qp." + name))
	}
	if n.Disk != nil {
		// A node serving files gets hostile media too: the HTTP soak
		// proves the serving path's op-level ErrIO retry contract.
		n.Disk.SetFaultHook(in.DiskHook("disk." + name))
	}
	n.Kernel.Env.Registry.Register(com.FaultIID, in)
	n.Kernel.Env.Registry.Register(com.StatsIID, in.StatsSet())
}
