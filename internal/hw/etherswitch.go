package hw

import "sync"

// EtherSwitch is a learning Ethernet switch, the one segment a NIC
// attaches to: the paper's two-PC testbed (Tables 1 and 2) is a
// two-port switch, and the cluster rig scales it to N ports.  Each port
// is a point-to-point link for one NIC; the switch floods frames with
// unknown or broadcast destinations to every other port, learns source
// stations as traffic arrives, and thereafter forwards unicast frames
// to the learned port alone.
//
// Forwarding is store-and-forward with a bounded per-port egress queue:
// a frame for a port whose queue is full is dropped and counted
// (backpressure), like an output-buffered switch under congestion.
// Delivery happens on the thread of whichever sender first finds the
// port idle; concurrent senders enqueue behind it, so per-port frame
// order is FIFO regardless of contention.  No queueing stage is added
// for an idle port: the sender's own thread carries its frame into the
// receiving NIC's ring, so the fabric is never the bottleneck, which is
// what makes the paper's software-overhead comparisons observable.
//
// Hostile behaviour — loss, corruption, duplication, reordering — comes
// from a WireFaultHook (see internal/faults).
type EtherSwitch struct {
	mu    sync.Mutex
	ports []*SwitchPort           //oskit:guardedby mu
	macs  map[[6]byte]*SwitchPort //oskit:guardedby mu
	hook  WireFaultHook           //oskit:guardedby mu
	// hookMu serializes fault-hook invocations (the injector's burst
	// state relies on one-frame-at-a-time calls) without holding sw.mu,
	// so a hook that reads switch state cannot deadlock against
	// concurrent senders or Stats callers.
	hookMu sync.Mutex
	held   *switchHeld //oskit:guardedby mu  frame held back by a Reorder verdict

	queueLen int //oskit:initonly  per-port egress queue bound

	txFrames   uint64 //oskit:guardedby mu  frames offered by attached NICs
	forwarded  uint64 //oskit:guardedby mu  unicast frames sent to the learned port
	flooded    uint64 //oskit:guardedby mu  frames flooded (broadcast or unknown station)
	filtered   uint64 //oskit:guardedby mu  unicast frames whose station sits on the ingress port
	drops      uint64 //oskit:guardedby mu  egress-queue overflows (backpressure)
	faultDrops uint64 //oskit:guardedby mu  frames dropped by the fault hook
	learned    uint64 //oskit:guardedby mu  MAC table inserts and moves
}

// switchHeld is a frame stashed by a Reorder verdict, remembering its
// ingress port so the late delivery re-runs the forwarding decision.
type switchHeld struct {
	in    *SwitchPort
	frame []byte
}

// SwitchPort is one switch port, bound to exactly one NIC by
// EtherSwitch.Attach.
type SwitchPort struct {
	sw  *EtherSwitch
	idx int
	nic *NIC

	q        [][]byte // bounded egress queue, guarded by sw.mu
	draining bool     // a sender's thread is emptying q
}

// DefaultSwitchQueueLen bounds each port's egress queue: deep enough
// that transient fan-in bursts survive, shallow enough that a stalled
// receiver exerts backpressure instead of consuming unbounded memory.
const DefaultSwitchQueueLen = 64

// NewEtherSwitch creates a switch with no ports and an empty MAC table.
func NewEtherSwitch() *EtherSwitch {
	return &EtherSwitch{
		macs:     map[[6]byte]*SwitchPort{},
		queueLen: DefaultSwitchQueueLen,
	}
}

// NewEtherWire returns NewEtherSwitch().  It exists only because
// bench/rig.go compiles against that name; everything else calls
// NewEtherSwitch.
func NewEtherWire() *EtherSwitch { return NewEtherSwitch() }

// Attach adds a port and binds n to it, publishing the binding under the
// NIC's own lock.  Machine.AttachNIC calls it.
func (sw *EtherSwitch) Attach(n *NIC) {
	sw.mu.Lock()
	p := &SwitchPort{sw: sw, idx: len(sw.ports), nic: n}
	sw.ports = append(sw.ports, p)
	sw.mu.Unlock()
	n.mu.Lock()
	n.wire = p
	n.mu.Unlock()
}

// Ports reports how many ports the switch has.
func (sw *EtherSwitch) Ports() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.ports)
}

// SetFaultHook installs (or, with nil, removes) the frame fault hook,
// called once per offered frame in ingress order.  Safe to toggle while
// traffic is flowing.
func (sw *EtherSwitch) SetFaultHook(h WireFaultHook) {
	sw.mu.Lock()
	sw.hook = h
	sw.held = nil
	sw.mu.Unlock()
}

// SwitchStats is the switch's forwarding ledger.
type SwitchStats struct {
	TxFrames   uint64 // frames offered by attached NICs
	Forwarded  uint64 // unicast frames sent to the learned port
	Flooded    uint64 // frames flooded (broadcast or unknown station)
	Filtered   uint64 // unicast frames filtered at the ingress port
	Drops      uint64 // egress-queue overflows (backpressure)
	FaultDrops uint64 // frames dropped by the fault hook
	Learned    uint64 // MAC table inserts and moves
	Stations   int    // MAC table size
}

// Stats reports the forwarding ledger.
func (sw *EtherSwitch) Stats() SwitchStats {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return SwitchStats{
		TxFrames:   sw.txFrames,
		Forwarded:  sw.forwarded,
		Flooded:    sw.flooded,
		Filtered:   sw.filtered,
		Drops:      sw.drops,
		FaultDrops: sw.faultDrops,
		Learned:    sw.learned,
		Stations:   len(sw.macs),
	}
}

// PortOf reports which port a station was learned on, or -1.
func (sw *EtherSwitch) PortOf(mac [6]byte) int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if p, ok := sw.macs[mac]; ok {
		return p.idx
	}
	return -1
}

// transmitGather carries one frame from the port's NIC into the switch,
// which flattens it (store-and-forward), consults the fault hook, learns
// the source station, and forwards.  The frame, its duplicate and a
// released held frame are switched in one critical section and delivered
// after it; a second handoff to the same port queues behind the first,
// so per-port order is frame, duplicate, held.
func (p *SwitchPort) transmitGather(parts [][]byte) {
	sw := p.sw
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if total < EtherHdrLen || len(parts[0]) < 6 {
		return
	}
	frame := flatten(parts, total)
	sw.mu.Lock()
	sw.txFrames++
	var fault WireFault
	if hook := sw.hook; hook != nil {
		sw.mu.Unlock()
		sw.hookMu.Lock()
		//oskit:allow lockhook -- hookMu exists only to serialize this call; nothing else takes it, so no callback can deadlock on it
		fault = hook(total)
		sw.hookMu.Unlock()
		if fault.Corrupt {
			corrupt(frame, fault.CorruptOff)
		}
		sw.mu.Lock()
	}
	if fault.Drop {
		sw.faultDrops++
		sw.mu.Unlock()
		return
	}
	held := sw.held
	sw.held = nil
	if fault.Reorder && held == nil {
		// Hold this frame back; the next ingress flushes it after
		// itself, swapping the pair in fabric order.
		sw.held = &switchHeld{in: p, frame: frame}
		sw.mu.Unlock()
		return
	}
	var buf [1]handoff
	idle := sw.switchLocked(p, frame, buf[:0])
	if fault.Duplicate {
		idle = sw.switchLocked(p, append([]byte(nil), frame...), idle)
	}
	if held != nil {
		idle = sw.switchLocked(held.in, held.frame, idle)
	}
	sw.mu.Unlock()
	deliverAll(idle)
}

// handoff is a frame for an egress port that was idle: the thread that
// made the forwarding decision now owns the port's drain and delivers
// the frame itself, so it never passes through the queue.
type handoff struct {
	out   *SwitchPort
	frame []byte
}

// switchLocked makes the forwarding decision for one flattened frame:
// it queues the frame on each busy egress port and appends a handoff to
// idle for each idle one, which the caller delivers once sw.mu is
// released.
func (sw *EtherSwitch) switchLocked(in *SwitchPort, frame []byte, idle []handoff) []handoff {
	var dst, src [6]byte
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])

	// Learn (or move) the source station to the ingress port.  The
	// broadcast address is never a valid source; don't let a corrupt
	// frame teach it.
	if src != BroadcastMAC {
		if prev, ok := sw.macs[src]; !ok || prev != in {
			sw.macs[src] = in
			sw.learned++
		}
	}
	if out, ok := sw.macs[dst]; ok {
		if out == in {
			// The station sits behind the ingress port: filter, the way
			// a real switch suppresses same-segment traffic.
			sw.filtered++
			return idle
		}
		sw.forwarded++
		return sw.enqueueLocked(out, frame, idle)
	}
	// Broadcast (never learned) or unknown station: flood in port order
	// (deterministic: ports, not the MAC map, drive iteration).
	sw.flooded++
	first := true
	for _, out := range sw.ports {
		if out == in {
			continue
		}
		f := frame
		if !first {
			// Each NIC ring takes ownership of its slice; flooding needs
			// per-port copies beyond the first.
			f = append([]byte(nil), frame...)
		}
		first = false
		idle = sw.enqueueLocked(out, f, idle)
	}
	return idle
}

// enqueueLocked offers f to one egress port: an idle port (whose queue
// is empty) becomes busy and is handed to the caller, a busy one queues
// f behind its drainer, and a full queue drops it.
func (sw *EtherSwitch) enqueueLocked(out *SwitchPort, f []byte, idle []handoff) []handoff {
	switch {
	case len(out.q) >= sw.queueLen:
		sw.drops++ // backpressure: egress queue full
	case !out.draining:
		out.draining = true
		idle = append(idle, handoff{out, f})
	default:
		out.q = append(out.q, f)
	}
	return idle
}

// deliverAll drains every port handed over by switchLocked.
func deliverAll(idle []handoff) {
	for _, h := range idle {
		h.out.drain(h.frame)
	}
}

// drain delivers f into the attached NIC's receive ring outside the
// switch lock, then empties the port's egress queue the same way.
// Exactly one thread drains a port at a time (the draining flag);
// frames enqueued while it runs are picked up before it exits.
func (p *SwitchPort) drain(f []byte) {
	sw := p.sw
	for {
		var dst [6]byte
		copy(dst[:], f[0:6])
		if p.nic.accepts(dst) {
			p.nic.deliver(f)
		}
		sw.mu.Lock()
		if len(p.q) == 0 {
			p.draining = false
			sw.mu.Unlock()
			return
		}
		f = p.q[0]
		p.q = p.q[1:]
		sw.mu.Unlock()
	}
}
