package hw

import "sync"

// EtherMTU is the Ethernet payload MTU; frames carry a 14-byte header.
const (
	EtherMTU     = 1500
	EtherHdrLen  = 14
	EtherMinLen  = 60 // minimum frame (without FCS)
	EtherMaxLen  = EtherHdrLen + EtherMTU
	EtherRingLen = 256 // receive ring slots per NIC (PCI-era descriptor count)
)

// BroadcastMAC is the all-ones station address.
var BroadcastMAC = [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// WireFault is the verdict a WireFaultHook passes on one frame.  The
// zero value delivers the frame untouched.
type WireFault struct {
	// Drop discards the frame (burst loss, collisions).
	Drop bool
	// Corrupt flips one payload byte at CorruptOff (modulo the frame
	// length) in every delivered copy — the FCS failure a real NIC
	// would catch, left for the protocol checksums to find here.
	Corrupt    bool
	CorruptOff int
	// Duplicate delivers the frame twice (switch flooding, link retry).
	Duplicate bool
	// Reorder holds the frame back and delivers it after the next
	// frame on the wire (adjacent-pair swap).  A held frame that no
	// later traffic flushes is lost, like a drop.
	Reorder bool
}

// WireFaultHook decides the fate of one frame.  The switch calls it
// serialized (one frame at a time, in ingress order), so decisions see a
// deterministic event sequence for deterministic traffic.
type WireFaultHook func(frameLen int) WireFault

// corruptAt picks the byte a Corrupt verdict flips in a frame of n
// bytes: off (modulo the length) into the payload rather than the
// station addresses — a flipped MAC byte is just a filtered frame, which
// Drop already models, and on a switch it would poison the MAC table.
func corruptAt(n, off int) int {
	if off < 0 {
		off = -off
	}
	if n > EtherHdrLen {
		return EtherHdrLen + off%(n-EtherHdrLen)
	}
	return off % n
}

// wireFrame is one frame crossing the switch: the sender's gather list
// (parts) or contiguous run (buf) while the sender's own thread carries
// it, or a switch-owned copy in buf once it waits in an egress queue or
// behind a Reorder verdict.  Delivery copies it into a receive-ring slot
// — the one copy a busmaster's DMA makes — so no frame is ever
// flattened on its way.
type wireFrame struct {
	parts   [][]byte
	buf     []byte
	len     int
	corrupt int // byte flipped in every delivered copy, or -1
}

// read copies the frame's first len(dst) bytes (all of it, if dst is
// that long) into dst and returns the count; header peeks read a prefix.
// Corruption is not applied: it never reaches the station addresses.
func (f *wireFrame) read(dst []byte) int {
	if f.parts == nil {
		return copy(dst, f.buf[:f.len])
	}
	n := 0
	for _, p := range f.parts {
		n += copy(dst[n:], p)
	}
	return n
}

// copyTo writes the whole frame into dst[:f.len], corruption applied.
func (f *wireFrame) copyTo(dst []byte) {
	f.read(dst[:f.len])
	if f.corrupt >= 0 {
		dst[f.corrupt] ^= 0xff
	}
}

// rssPrefix is the most of a frame RSSHash reads: Ethernet header, a
// maximal IPv4 header and the two ports.
const rssPrefix = EtherHdrLen + 60 + 4

// nicRing is one receive queue: a descriptor ring, the interrupt line it
// raises, and its share of the receive ledger.  Every NIC has ring 0 on
// its legacy line; ConfigureRxQueues adds more for RSS spreading.  Each
// ring has its own lock so drain paths on different CPUs never contend.
//
// Slots own recycled storage: a frame is copied into a buffer from the
// ring's free list, and a popped buffer is lent to the consumer until
// its next pop on the ring, when it returns to the free list.  So a
// frame from RxPop or RxPopBatchOn is valid only until the next pop on
// the same ring; a consumer that keeps it longer copies it first.
type nicRing struct {
	line int

	mu    sync.Mutex
	slots [EtherRingLen][]byte //oskit:guardedby mu  occupied: slots[head], … (n of them)
	head  int                  //oskit:guardedby mu
	n     int                  //oskit:guardedby mu
	free  frameBufs            //oskit:guardedby mu  buffers no frame occupies
	lent  [][]byte             //oskit:guardedby mu  buffers handed out by the last pop

	rxDrops   uint64 //oskit:guardedby mu
	rxOK      uint64 //oskit:guardedby mu
	rxRaised  uint64 //oskit:guardedby mu  receive interrupts raised
	rxSuppr   uint64 //oskit:guardedby mu  receive interrupts suppressed by mitigation
	rxRearms  uint64 //oskit:guardedby mu  poller re-arms that re-raised the line
	rxBatched uint64 //oskit:guardedby mu  frames drained through RxPopBatchOn
}

// NIC is a simulated Ethernet controller: a transmit path onto its
// switch port and one or more fixed-size receive rings drained at interrupt level by
// its driver.  A single-queue NIC (the default) behaves exactly as the
// PCI-era controllers the donor drivers were written for; a multi-queue
// NIC spreads inbound flows across rings by RSS hash, each ring raising
// its own interrupt line with its own CPU affinity.
type NIC struct {
	Mac  [6]byte
	wire *SwitchPort
	ic   *IntrController
	line int // ring 0's line (the legacy single-queue IRQ)

	mu      sync.Mutex
	rings   []*nicRing  //oskit:guardedby mu
	promisc bool        //oskit:guardedby mu
	rxHook  func() bool //oskit:guardedby mu  true: drop the inbound frame (forced overrun)

	// rxMitigate, when set, suppresses the receive interrupt unless the
	// ring just went empty→non-empty: the polled (NAPI-style) drain mode.
	// The policy covers every ring.
	rxMitigate bool

	txOK     uint64 //oskit:guardedby mu
	txGather uint64 //oskit:guardedby mu
}

// NewNIC creates a NIC raising the given IRQ line on receive.
func NewNIC(ic *IntrController, line int, mac [6]byte) *NIC {
	return &NIC{Mac: mac, ic: ic, line: line, rings: []*nicRing{{line: line}}}
}

// IRQ returns the NIC's interrupt line (ring 0's line).
func (n *NIC) IRQ() int { return n.line }

// ConfigureRxQueues grows the NIC to q receive rings (RSS).  Ring 0 keeps
// the legacy line; each extra ring gets a message-signaled vector from the
// controller, affinitized round-robin across the machine's CPUs so rings
// drain concurrently.  Call at boot, before the device receives traffic;
// q below 2, or a NIC already configured, is a no-op.  Returns the
// interrupt line of every ring, in ring order.
func (n *NIC) ConfigureRxQueues(q int) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.rings) < q {
		line := n.ic.AllocLine()
		if line < 0 {
			break // vector space exhausted: run with what we have
		}
		n.ic.SetAffinity(line, len(n.rings)%n.ic.NumCPUs())
		n.rings = append(n.rings, &nicRing{line: line})
	}
	lines := make([]int, len(n.rings))
	for i, r := range n.rings {
		lines[i] = r.line
	}
	return lines
}

// RxQueues reports the number of receive rings.
func (n *NIC) RxQueues() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.rings)
}

// RxIRQ returns ring q's interrupt line (-1 if no such ring).
func (n *NIC) RxIRQ(q int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q < 0 || q >= len(n.rings) {
		return -1
	}
	return n.rings[q].line
}

// ringOf returns ring q, or nil when out of range.
func (n *NIC) ringOf(q int) *nicRing {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q < 0 || q >= len(n.rings) {
		return nil
	}
	return n.rings[q]
}

// SetPromiscuous controls whether the address filter accepts all frames.
func (n *NIC) SetPromiscuous(on bool) {
	n.mu.Lock()
	n.promisc = on
	n.mu.Unlock()
}

// SetRxFaultHook installs (or, with nil, removes) a receive fault hook:
// when it returns true the inbound frame is dropped exactly as a ring
// overrun would drop it, charging rxDrops.  Safe to toggle mid-traffic.
func (n *NIC) SetRxFaultHook(h func() bool) {
	n.mu.Lock()
	n.rxHook = h
	n.mu.Unlock()
}

// Transmit sends one complete Ethernet frame.  Called by the driver from
// any level; returns once the frame is on the wire.
func (n *NIC) Transmit(frame []byte) {
	n.transmit(wireFrame{buf: frame, len: len(frame), corrupt: -1}, false)
}

// TransmitGather sends one frame scattered across several memory runs —
// the gather-DMA engine of busmaster controllers, which is how
// mbuf-chain-native drivers transmit without first flattening the chain
// in software.  The single gather into the receiving ring models the DMA
// transfer itself (the same one copy a contiguous Transmit incurs).
func (n *NIC) TransmitGather(parts [][]byte) {
	if len(parts) == 1 {
		n.Transmit(parts[0])
		return
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	n.transmit(wireFrame{parts: parts, len: total, corrupt: -1}, len(parts) > 1)
}

func (n *NIC) transmit(f wireFrame, gather bool) {
	n.mu.Lock()
	w := n.wire
	if w != nil {
		n.txOK++
		if gather {
			n.txGather++
		}
	}
	n.mu.Unlock()
	if w == nil {
		return
	}
	w.transmit(&f)
}

// detach unplugs the NIC from its switch port (Machine.Halt): it
// transmits nothing more, and the switch delivers nothing more to it.
func (n *NIC) detach() {
	n.mu.Lock()
	p := n.wire
	n.wire = nil
	n.mu.Unlock()
	if p != nil {
		p.sw.detach(p)
	}
}

// RxPop removes and returns the oldest frame in ring 0, or nil when the
// ring is empty.  Drivers call it repeatedly from their interrupt handler
// until it returns nil (the controller coalesces interrupts).  The frame
// is valid until the next pop on the ring (see nicRing).
func (n *NIC) RxPop() []byte { return n.RxPopOn(0) }

// RxPopOn is RxPop against one receive ring.
func (n *NIC) RxPopOn(q int) []byte {
	r := n.ringOf(q)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reclaimLocked()
	if r.n == 0 {
		return nil
	}
	return r.popLocked()
}

// reclaimLocked returns the buffers lent by the previous pop to the
// free list: their frames' lifetime ends with this pop.
func (r *nicRing) reclaimLocked() {
	r.free = append(r.free, r.lent...)
	clear(r.lent)
	r.lent = r.lent[:0]
}

// popLocked removes the oldest frame, lending its buffer out.
func (r *nicRing) popLocked() []byte {
	f := r.slots[r.head]
	r.slots[r.head] = nil
	r.head = (r.head + 1) % EtherRingLen
	r.n--
	r.lent = append(r.lent, f)
	return f
}

// frameBufs is a free list of frame buffers: a ring's, or the switch's
// for the copies it owns.
type frameBufs [][]byte

// get returns a buffer of size bytes, allocating only while the list's
// working set is still growing.
func (fb *frameBufs) get(size int) []byte {
	if k := len(*fb) - 1; k >= 0 && cap((*fb)[k]) >= size {
		b := (*fb)[k]
		(*fb)[k] = nil
		*fb = (*fb)[:k]
		return b[:size]
	}
	return make([]byte, size, max(size, EtherMaxLen))
}

func (fb *frameBufs) put(b []byte) {
	if b != nil {
		*fb = append(*fb, b)
	}
}

// Stats reports receive/transmit counters and ring-overflow drops,
// aggregated over every receive ring.
func (n *NIC) Stats() (rx, tx, drops uint64) {
	n.mu.Lock()
	rings := n.rings
	tx = n.txOK
	n.mu.Unlock()
	for _, r := range rings {
		r.mu.Lock()
		rx += r.rxOK
		drops += r.rxDrops
		r.mu.Unlock()
	}
	return rx, tx, drops
}

// TxGathers reports how many transmitted frames were fetched from a
// multi-run fragment list (the gather-DMA engine at work); a frame handed
// over as one run does not count even when sent via TransmitGather.
func (n *NIC) TxGathers() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.txGather
}

// deliver offers one frame from the switch: the station filter, the
// fault hook, then a copy into a slot of the frame's receive ring.
func (n *NIC) deliver(f *wireFrame) {
	var dst [6]byte
	f.read(dst[:])
	n.mu.Lock()
	if !n.promisc && dst != n.Mac && dst != BroadcastMAC {
		n.mu.Unlock()
		return
	}
	hook := n.rxHook
	rings := n.rings
	mitigate := n.rxMitigate
	n.mu.Unlock()
	// The hook runs outside n.mu (it may call back into NIC.Stats) and is
	// consulted for every offered frame, even when the ring is already
	// full — one frame, one decision, so a seeded fault plan's decision
	// stream stays aligned with the frame sequence regardless of ring
	// occupancy or ring choice.
	injected := hook != nil && hook()
	r := rings[0]
	if len(rings) > 1 {
		var hdr [rssPrefix]byte
		r = rings[RSSRing(hdr[:f.read(hdr[:])], len(rings))]
	}
	r.mu.Lock()
	if injected || r.n >= EtherRingLen {
		r.rxDrops++ // ring overrun, real or injected
		r.mu.Unlock()
		return
	}
	wasEmpty := r.n == 0
	b := r.free.get(f.len)
	f.copyTo(b)
	r.slots[(r.head+r.n)%EtherRingLen] = b
	r.n++
	r.rxOK++
	raise := n.ic != nil
	if raise && mitigate && !wasEmpty {
		// The ring was already non-empty: the poller owes us a drain
		// pass anyway, so the edge is redundant.
		raise = false
		r.rxSuppr++
	} else if raise {
		r.rxRaised++
	}
	r.mu.Unlock()
	if raise {
		n.ic.Raise(r.line)
	}
}

// SetRxIntrMitigation switches the receive-interrupt policy.  Off (the
// default), every accepted frame raises the line — the stock per-frame
// interrupt model.  On, only the ring's empty→non-empty transition
// raises it; a polling driver drains batches and re-arms via RxRearmOn.
// Turning mitigation off re-raises the line if frames are pending, so
// no frame is stranded across the switch.
func (n *NIC) SetRxIntrMitigation(on bool) {
	n.mu.Lock()
	n.rxMitigate = on
	rings := n.rings
	n.mu.Unlock()
	if on || n.ic == nil {
		return
	}
	for _, r := range rings {
		r.mu.Lock()
		pending := r.n > 0
		if pending {
			r.rxRaised++
		}
		r.mu.Unlock()
		if pending {
			n.ic.Raise(r.line)
		}
	}
}

// RxPopBatchOn removes up to max frames (bounded by len(dst)) from
// ring q into dst and returns the count — the polled drain a budgeted
// receive loop uses instead of per-frame RxPopOn.  The frames are valid
// until the next pop on the ring.
func (n *NIC) RxPopBatchOn(q int, dst [][]byte, max int) int {
	r := n.ringOf(q)
	if r == nil {
		return 0
	}
	if max > len(dst) {
		max = len(dst)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reclaimLocked()
	c := min(r.n, max)
	if c <= 0 {
		return 0
	}
	for i := range c {
		dst[i] = r.popLocked()
	}
	r.rxBatched += uint64(c)
	return c
}

// RxRearmOn re-raises ring q's receive interrupt if frames are still
// pending — the poller's "budget exhausted, reschedule me" edge.
// Returns whether the line was raised.
func (n *NIC) RxRearmOn(q int) bool {
	r := n.ringOf(q)
	if r == nil || n.ic == nil {
		return false
	}
	r.mu.Lock()
	fire := r.n > 0
	if fire {
		r.rxRearms++
		r.rxRaised++
	}
	r.mu.Unlock()
	if fire {
		n.ic.Raise(r.line)
	}
	return fire
}

// RxIntrCounters reports the receive-interrupt ledger — interrupts
// raised, interrupts suppressed by mitigation, and re-arms — aggregated
// over every receive ring.
func (n *NIC) RxIntrCounters() (raised, suppressed, rearms uint64) {
	n.mu.Lock()
	rings := n.rings
	n.mu.Unlock()
	for _, r := range rings {
		r.mu.Lock()
		raised += r.rxRaised
		suppressed += r.rxSuppr
		rearms += r.rxRearms
		r.mu.Unlock()
	}
	return raised, suppressed, rearms
}

// RxBatched reports how many frames left the rings through RxPopBatchOn.
func (n *NIC) RxBatched() uint64 {
	n.mu.Lock()
	rings := n.rings
	n.mu.Unlock()
	var c uint64
	for _, r := range rings {
		r.mu.Lock()
		c += r.rxBatched
		r.mu.Unlock()
	}
	return c
}
