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
// Because the wire runs on the sender's thread, its frames are charged
// to whatever called into the kit: a socket call's stack reaches from
// libc through the protocol and driver down to the peer's NIC.  The
// paper's hardware cost its callers no stack at all, so the switch and
// NIC keep their share of that path small: every process-level socket
// call on the stock path fits a 2 KiB goroutine-stack budget down to
// the receiving NIC (internal/evalrig's TestSocketCallStackBudget), and
// a connection's thread grows its stack once, not twice.  The ingress
// decision runs out of line and returns before anything is delivered,
// and a handoff is a link through the egress port, not a frame copy.
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
	// A frame held back by a Reorder verdict: a switch-owned copy and
	// its ingress port, so the late delivery re-runs the forwarding
	// decision.  heldIn is nil when nothing is held.
	heldIn  *SwitchPort //oskit:guardedby mu
	heldBuf []byte      //oskit:guardedby mu
	bufs    frameBufs   //oskit:guardedby mu  storage for the frame copies the switch owns

	queueLen int //oskit:initonly  per-port egress queue bound

	txFrames   uint64 //oskit:guardedby mu  frames offered by attached NICs
	forwarded  uint64 //oskit:guardedby mu  unicast frames sent to the learned port
	flooded    uint64 //oskit:guardedby mu  frames flooded (broadcast or unknown station)
	filtered   uint64 //oskit:guardedby mu  unicast frames whose station sits on the ingress port
	drops      uint64 //oskit:guardedby mu  egress-queue overflows (backpressure)
	faultDrops uint64 //oskit:guardedby mu  frames dropped by the fault hook
	learned    uint64 //oskit:guardedby mu  MAC table inserts and moves
}

// SwitchPort is one switch port, bound to exactly one NIC by
// EtherSwitch.Attach until that NIC's machine halts.
type SwitchPort struct {
	sw  *EtherSwitch
	idx int
	nic *NIC // guarded by sw.mu; nil once the machine has halted

	// q is the bounded egress queue, a ring of switch-owned copies:
	// q[qh], … (qn of them).  Guarded by sw.mu.
	q        [][]byte
	qh, qn   int
	draining bool // a sender's thread is emptying q

	// The handoff, written under sw.mu by the ingress decision that
	// found the port idle and made it draining, then read by that
	// sender's thread alone, which owns the port until its drain
	// clears draining.
	next  *SwitchPort // the next port the same ingress handed over
	first bool        // the ingress frame itself comes before q
	to    *NIC        // where the ingress frame goes
	cur   wireFrame   // the queued copy being delivered, off the drainer's stack
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
	p := &SwitchPort{sw: sw, idx: len(sw.ports), nic: n, cur: wireFrame{corrupt: -1}}
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
	sw.bufs.put(sw.heldBuf)
	sw.heldIn, sw.heldBuf = nil, nil
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
		sw.bufs.put(p.popLocked())
	}
}

// transmit carries one frame from the port's NIC through the switch:
// the ingress decision, then delivery into every port it handed over.
// The frame, its duplicate and a released held frame are switched in one
// critical section and delivered after it; a second frame for the same
// port queues behind the first, so per-port order is frame, duplicate,
// held.  Only a frame that has to wait is copied (store-and-forward);
// one handed to an idle port is copied once, into the receiving ring.
func (p *SwitchPort) transmit(f *wireFrame) {
	if f.len < EtherHdrLen {
		return
	}
	for out := p.sw.ingress(p, f); out != nil; {
		next := out.next // out is free for another sender once drained
		out.drain(f)
		out = next
	}
}

// ingress is the switch's decision for one offered frame, under sw.mu:
// the fault hook's verdict, the reorder stash, learning and forwarding.
// It returns the egress ports it found idle, linked through next; each
// is draining and belongs to the caller until its drain empties it.  It
// runs out of line and returns before any delivery, so its frame is not
// on the stack a delivery runs on.
//
//go:noinline
func (sw *EtherSwitch) ingress(in *SwitchPort, f *wireFrame) *SwitchPort {
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
	var hs handoffs
	switch {
	case fault.Drop:
		sw.faultDrops++
	case fault.Reorder && sw.heldIn == nil:
		// Hold this frame back; the next ingress flushes it after
		// itself, swapping the pair in fabric order.
		sw.heldIn, sw.heldBuf = in, sw.ownLocked(f)
	default:
		sw.switchLocked(in, f, &hs, true)
		if fault.Duplicate {
			sw.switchLocked(in, f, &hs, true)
		}
		if held := sw.heldIn; held != nil {
			// The held copy is queued on every port it goes to, idle or
			// not, so no handoff points at it and it is recycled here.
			hf := wireFrame{buf: sw.heldBuf, len: len(sw.heldBuf), corrupt: -1}
			sw.heldIn, sw.heldBuf = nil, nil
			sw.switchLocked(held, &hf, &hs, false)
			sw.bufs.put(hf.buf)
		}
	}
	sw.mu.Unlock()
	return hs.head
}

// handoffs is the list of ports one ingress decision handed over,
// linked through SwitchPort.next in the order they were found idle.
type handoffs struct{ head, tail *SwitchPort }

// switchLocked makes the forwarding decision for one frame and offers
// it to each egress port.  fresh says f is the sender's frame, which an
// idle port takes by handoff rather than as a queued copy.
func (sw *EtherSwitch) switchLocked(in *SwitchPort, f *wireFrame, hs *handoffs, fresh bool) {
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
			return
		}
		sw.forwarded++
		sw.enqueueLocked(out, f, hs, fresh)
		return
	}
	// Broadcast (never learned) or unknown station: flood in port order
	// (deterministic: ports, not the MAC map, drive iteration).
	sw.flooded++
	for _, out := range sw.ports {
		if out != in {
			sw.enqueueLocked(out, f, hs, fresh)
		}
	}
}

// enqueueLocked offers f to one egress port: an idle port (whose queue
// is empty) becomes draining and is handed to the caller, a busy one
// queues a copy of f behind its drainer, and a full queue drops it.  An
// idle port takes a fresh frame by handoff and anything else as a
// queued copy.  A port whose machine halted loses the frame.
func (sw *EtherSwitch) enqueueLocked(out *SwitchPort, f *wireFrame, hs *handoffs, fresh bool) {
	switch {
	case out.nic == nil:
		return
	case out.qn >= sw.queueLen:
		sw.drops++ // backpressure: egress queue full
		return
	case !out.draining:
		out.draining, out.first, out.to, out.next = true, fresh, out.nic, nil
		if hs.tail == nil {
			hs.head = out
		} else {
			hs.tail.next = out
		}
		hs.tail = out
		if fresh {
			return
		}
	}
	if out.q == nil {
		out.q = make([][]byte, sw.queueLen)
	}
	out.q[(out.qh+out.qn)%len(out.q)] = sw.ownLocked(f)
	out.qn++
}

// popLocked removes the oldest queued copy.
func (p *SwitchPort) popLocked() []byte {
	b := p.q[p.qh]
	p.q[p.qh] = nil
	p.qh = (p.qh + 1) % len(p.q)
	p.qn--
	return b
}

// ownLocked copies f into switch-owned storage, corruption applied.
func (sw *EtherSwitch) ownLocked(f *wireFrame) []byte {
	b := sw.bufs.get(f.len)
	f.copyTo(b)
	return b
}

// drain delivers the port's handoff — f, when the ingress frame found
// the port idle — outside the switch lock, then empties the port's
// egress queue the same way.  Exactly one thread drains a port at a
// time (the draining flag); frames enqueued while it runs are picked up
// before it exits.
func (p *SwitchPort) drain(f *wireFrame) {
	nic := p.to
	if !p.first {
		f = nil
	}
	for {
		if f != nil {
			nic.deliver(f)
		}
		if f, nic = p.popCopy(); f == nil {
			return
		}
	}
}

// popCopy recycles the queued copy drain just delivered and takes the
// next one into p.cur, or ends the drain when the queue is empty.
//
//go:noinline
func (p *SwitchPort) popCopy() (*wireFrame, *NIC) {
	sw := p.sw
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.bufs.put(p.cur.buf)
	p.cur.buf = nil
	if p.qn == 0 {
		p.draining = false
		return nil, nil
	}
	p.cur.buf = p.popLocked()
	p.cur.len = len(p.cur.buf)
	return &p.cur, p.nic
}
