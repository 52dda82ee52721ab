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
	held   switchHeld //oskit:guardedby mu  frame held back by a Reorder verdict
	bufs   frameBufs  //oskit:guardedby mu  storage for the frame copies the switch owns

	queueLen int //oskit:initonly  per-port egress queue bound

	txFrames   uint64 //oskit:guardedby mu  frames offered by attached NICs
	forwarded  uint64 //oskit:guardedby mu  unicast frames sent to the learned port
	flooded    uint64 //oskit:guardedby mu  frames flooded (broadcast or unknown station)
	filtered   uint64 //oskit:guardedby mu  unicast frames whose station sits on the ingress port
	drops      uint64 //oskit:guardedby mu  egress-queue overflows (backpressure)
	faultDrops uint64 //oskit:guardedby mu  frames dropped by the fault hook
	learned    uint64 //oskit:guardedby mu  MAC table inserts and moves
}

// switchHeld is a frame stashed by a Reorder verdict (a switch-owned
// copy), remembering its ingress port so the late delivery re-runs the
// forwarding decision.  in is nil when nothing is held.
type switchHeld struct {
	in    *SwitchPort
	frame wireFrame
}

// SwitchPort is one switch port, bound to exactly one NIC by
// EtherSwitch.Attach until that NIC's machine halts.
type SwitchPort struct {
	sw  *EtherSwitch
	idx int
	nic *NIC // guarded by sw.mu; nil once the machine has halted

	// q is the bounded egress queue, a ring of switch-owned copies:
	// q[qh], … (qn of them).  Guarded by sw.mu.
	q        []wireFrame
	qh, qn   int
	draining bool // a sender's thread is emptying q
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
	sw.bufs.put(sw.held.frame.buf)
	sw.held = switchHeld{}
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

// detach unbinds p from its NIC (the machine halted): frames the switch
// forwards to the port from now on are lost on the dead link, and the
// frames queued for it are discarded.
func (sw *EtherSwitch) detach(p *SwitchPort) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	p.nic = nil
	for p.qn > 0 {
		sw.bufs.put(p.popLocked().buf)
	}
}

// transmit carries one frame from the port's NIC into the switch, which
// consults the fault hook, learns the source station, and forwards.  The
// frame, its duplicate and a released held frame are switched in one
// critical section and delivered after it; a second handoff to the same
// port queues behind the first, so per-port order is frame, duplicate,
// held.  Only a frame that has to wait is copied (store-and-forward);
// one handed to an idle port is copied once, into the receiving ring.
func (p *SwitchPort) transmit(f *wireFrame) {
	sw := p.sw
	if f.len < EtherHdrLen {
		return
	}
	sw.mu.Lock()
	sw.txFrames++
	var fault WireFault
	if hook := sw.hook; hook != nil {
		sw.mu.Unlock()
		sw.hookMu.Lock()
		//oskit:allow lockhook -- hookMu exists only to serialize this call; nothing else takes it, so no callback can deadlock on it
		fault = hook(f.len)
		sw.hookMu.Unlock()
		if fault.Corrupt {
			f.corrupt = corruptAt(f.len, fault.CorruptOff)
		}
		sw.mu.Lock()
	}
	if fault.Drop {
		sw.faultDrops++
		sw.mu.Unlock()
		return
	}
	held := sw.held
	sw.held = switchHeld{}
	if fault.Reorder && held.in == nil {
		// Hold this frame back; the next ingress flushes it after
		// itself, swapping the pair in fabric order.
		sw.held = switchHeld{in: p, frame: sw.ownLocked(f)}
		sw.mu.Unlock()
		return
	}
	var buf [4]handoff
	idle := sw.switchLocked(p, f, buf[:0])
	if fault.Duplicate {
		idle = sw.switchLocked(p, f, idle)
	}
	if held.in != nil {
		idle = sw.switchLocked(held.in, &held.frame, idle)
	}
	sw.mu.Unlock()
	deliverAll(idle)
	if held.in != nil {
		sw.mu.Lock()
		sw.bufs.put(held.frame.buf)
		sw.mu.Unlock()
	}
}

// handoff is a frame for an egress port that was idle: the thread that
// made the forwarding decision now owns the port's drain and delivers
// the frame itself, so it never passes through the queue.
type handoff struct {
	out   *SwitchPort
	nic   *NIC
	frame wireFrame
}

// switchLocked makes the forwarding decision for one frame: it queues a
// copy on each busy egress port and appends a handoff to idle for each
// idle one, which the caller delivers once sw.mu is released.
func (sw *EtherSwitch) switchLocked(in *SwitchPort, f *wireFrame, idle []handoff) []handoff {
	var hdr [12]byte
	f.read(hdr[:])
	dst, src := [6]byte(hdr[0:6]), [6]byte(hdr[6:12])

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
		return sw.enqueueLocked(out, f, idle)
	}
	// Broadcast (never learned) or unknown station: flood in port order
	// (deterministic: ports, not the MAC map, drive iteration).
	sw.flooded++
	for _, out := range sw.ports {
		if out != in {
			idle = sw.enqueueLocked(out, f, idle)
		}
	}
	return idle
}

// enqueueLocked offers f to one egress port: an idle port (whose queue
// is empty) becomes busy and is handed to the caller, a busy one queues
// a copy of f behind its drainer, and a full queue drops it.  A port
// whose machine halted loses the frame.
func (sw *EtherSwitch) enqueueLocked(out *SwitchPort, f *wireFrame, idle []handoff) []handoff {
	switch {
	case out.nic == nil:
	case out.qn >= sw.queueLen:
		sw.drops++ // backpressure: egress queue full
	case !out.draining:
		out.draining = true
		idle = append(idle, handoff{out, out.nic, *f})
	default:
		if out.q == nil {
			out.q = make([]wireFrame, sw.queueLen)
		}
		out.q[(out.qh+out.qn)%len(out.q)] = sw.ownLocked(f)
		out.qn++
	}
	return idle
}

// popLocked removes the oldest queued frame.
func (p *SwitchPort) popLocked() wireFrame {
	f := p.q[p.qh]
	p.q[p.qh] = wireFrame{}
	p.qh = (p.qh + 1) % len(p.q)
	p.qn--
	return f
}

// ownLocked copies f into switch-owned storage, corruption applied.
func (sw *EtherSwitch) ownLocked(f *wireFrame) wireFrame {
	b := sw.bufs.get(f.len)
	f.copyTo(b)
	return wireFrame{buf: b, len: f.len, corrupt: -1}
}

// deliverAll drains every port handed over by switchLocked.
func deliverAll(idle []handoff) {
	for i := range idle {
		h := &idle[i]
		h.out.drain(h.nic, &h.frame)
	}
}

// drain delivers f into nic's receive ring outside the switch lock,
// then empties the port's egress queue the same way, recycling each
// queued copy once delivered.  Exactly one thread drains a port at a
// time (the draining flag); frames enqueued while it runs are picked up
// before it exits.
func (p *SwitchPort) drain(nic *NIC, f *wireFrame) {
	sw := p.sw
	nic.deliver(f)
	var delivered []byte
	for {
		sw.mu.Lock()
		sw.bufs.put(delivered)
		if p.qn == 0 {
			p.draining = false
			sw.mu.Unlock()
			return
		}
		q := p.popLocked()
		nic = p.nic
		sw.mu.Unlock()
		nic.deliver(&q)
		delivered = q.buf
	}
}
