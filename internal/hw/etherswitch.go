package hw

import "sync"

// EtherSwitch is a learning Ethernet switch: the N-node fabric the
// cluster rig scales the paper's two-PC testbed onto.  Each port is a
// point-to-point segment for one NIC; the switch floods frames with
// unknown or broadcast destinations to every other port, learns source
// stations as traffic arrives, and thereafter forwards unicast frames
// to the learned port alone.
//
// Forwarding is store-and-forward with a bounded per-port egress queue:
// a frame for a port whose queue is full is dropped and counted
// (backpressure), like an output-buffered switch under congestion.
// Delivery happens on the thread of whichever sender first finds the
// port idle; concurrent senders enqueue behind it, so per-port frame
// order is FIFO regardless of contention.
//
// A WireFaultHook may be installed exactly as on an EtherWire, so the
// chaos regimes built for the two-node rig apply unchanged to switched
// clusters.
type EtherSwitch struct {
	mu    sync.Mutex
	ports []*SwitchPort           //oskit:guardedby mu
	macs  map[[6]byte]*SwitchPort //oskit:guardedby mu
	hook  WireFaultHook           //oskit:guardedby mu
	// hookMu serializes fault-hook invocations without holding sw.mu,
	// for the same reason EtherWire keeps the two apart: a hook that
	// reads switch state must not deadlock against concurrent senders.
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

// SwitchPort is one switch port; it implements Segment for exactly one
// NIC.
type SwitchPort struct {
	sw  *EtherSwitch
	idx int

	nic      *NIC     // guarded by sw.mu
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

// NewPort adds one port.  Attach the port to a machine's NIC via
// Machine.AttachNIC, which calls Attach.
func (sw *EtherSwitch) NewPort() *SwitchPort {
	sw.mu.Lock()
	p := &SwitchPort{sw: sw, idx: len(sw.ports)}
	sw.ports = append(sw.ports, p)
	sw.mu.Unlock()
	return p
}

// Ports reports how many ports the switch has.
func (sw *EtherSwitch) Ports() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.ports)
}

// SetFaultHook installs (or, with nil, removes) the frame fault hook —
// the same contract as EtherWire.SetFaultHook, called once per offered
// frame in ingress order.
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

// Attach implements Segment: binds the port's single NIC.
func (p *SwitchPort) Attach(n *NIC) {
	p.sw.mu.Lock()
	if p.nic != nil {
		p.sw.mu.Unlock()
		panic("hw: switch port already has a NIC")
	}
	p.nic = n
	p.sw.mu.Unlock()
	n.mu.Lock()
	n.wire = p
	n.mu.Unlock()
}

// Index returns the port's number on its switch.
func (p *SwitchPort) Index() int { return p.idx }

// transmitGather implements Segment: one frame arrives at the ingress
// port.  The switch flattens it (store-and-forward), consults the fault
// hook, learns the source station, and forwards.
func (p *SwitchPort) transmitGather(src *NIC, parts [][]byte) {
	sw := p.sw
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if total < EtherHdrLen || len(parts[0]) < 6 {
		return
	}
	sw.mu.Lock()
	sw.txFrames++
	hook := sw.hook
	sw.mu.Unlock()

	var fault WireFault
	if hook != nil {
		sw.hookMu.Lock()
		//oskit:allow lockhook -- hookMu exists only to serialize this call; nothing else takes it, so no callback can deadlock on it
		fault = hook(total)
		sw.hookMu.Unlock()
	}
	if fault.Drop {
		sw.mu.Lock()
		sw.faultDrops++
		sw.mu.Unlock()
		return
	}
	frame := flatten(parts, total)
	if fault.Corrupt {
		corrupt(frame, fault.CorruptOff)
	}

	sw.mu.Lock()
	held := sw.held
	sw.held = nil
	if fault.Reorder && held == nil {
		// Hold this frame back; the next ingress flushes it after
		// itself, swapping the pair in fabric order.
		sw.held = &switchHeld{in: p, frame: frame}
		sw.mu.Unlock()
		return
	}
	sw.mu.Unlock()

	sw.switchFrame(p, frame)
	if fault.Duplicate {
		sw.switchFrame(p, append([]byte(nil), frame...))
	}
	if held != nil {
		sw.switchFrame(held.in, held.frame)
	}
}

// switchFrame makes the forwarding decision for one flattened frame and
// enqueues it on the chosen egress ports.  The switch owns frame.
func (sw *EtherSwitch) switchFrame(in *SwitchPort, frame []byte) {
	var dst, src [6]byte
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])

	sw.mu.Lock()
	// Learn (or move) the source station to the ingress port.  The
	// broadcast address is never a valid source; don't let a corrupt
	// frame teach it.
	if src != BroadcastMAC {
		if prev, ok := sw.macs[src]; !ok || prev != in {
			sw.macs[src] = in
			sw.learned++
		}
	}
	var egress []*SwitchPort
	if dst == BroadcastMAC {
		egress = sw.floodListLocked(in)
		sw.flooded++
	} else if out, ok := sw.macs[dst]; ok {
		if out == in {
			// The station sits behind the ingress port: filter, the way
			// a real switch suppresses same-segment traffic.
			sw.filtered++
			sw.mu.Unlock()
			return
		}
		egress = []*SwitchPort{out}
		sw.forwarded++
	} else {
		egress = sw.floodListLocked(in)
		sw.flooded++
	}

	var drain []*SwitchPort
	for i, out := range egress {
		if out.nic == nil {
			continue // unpopulated port: frame falls on the floor
		}
		if len(out.q) >= sw.queueLen {
			sw.drops++ // backpressure: egress queue full
			continue
		}
		f := frame
		if i > 0 {
			// Each NIC ring takes ownership of its slice; flooding
			// needs per-port copies beyond the first.
			f = append([]byte(nil), frame...)
		}
		out.q = append(out.q, f)
		if !out.draining {
			out.draining = true
			drain = append(drain, out)
		}
	}
	sw.mu.Unlock()

	for _, out := range drain {
		out.drain()
	}
}

// floodListLocked returns every port but the ingress, in port order
// (deterministic: ports, not the MAC map, drive iteration).
func (sw *EtherSwitch) floodListLocked(in *SwitchPort) []*SwitchPort {
	out := make([]*SwitchPort, 0, len(sw.ports)-1)
	for _, p := range sw.ports {
		if p != in {
			out = append(out, p)
		}
	}
	return out
}

// drain empties the port's egress queue, delivering into the attached
// NIC's receive ring outside the switch lock.  Exactly one thread
// drains a port at a time (the draining flag); frames enqueued while it
// runs are picked up before it exits.
func (p *SwitchPort) drain() {
	sw := p.sw
	for {
		sw.mu.Lock()
		if len(p.q) == 0 {
			p.draining = false
			sw.mu.Unlock()
			return
		}
		f := p.q[0]
		p.q = p.q[1:]
		nic := p.nic
		sw.mu.Unlock()
		if nic != nil {
			var dst [6]byte
			copy(dst[:], f[0:6])
			if nic.accepts(dst) {
				nic.deliver(f)
			}
		}
	}
}

var _ Segment = (*SwitchPort)(nil)
