package linuxdev

import (
	"sync/atomic"

	"oskit/internal/com"
	"oskit/internal/hw"
)

// Polled receive (E12): the fast-path counterpart of the scatter-gather
// transmit branch.  In the stock configuration every accepted frame
// raises the NIC's interrupt and the donor ISR allocates, copies and
// pushes one skbuff per frame — the per-packet interrupt and allocation
// overhead the paper's §6.2.10 profiling names.  On a fast-path glue
// (one assembled with an allocator service, glue.go), the ether node
// replaces the donor ISR with a budgeted poll loop at Open: the NIC
// mitigates interrupts (only the ring's empty→non-empty edge fires),
// each interrupt drains up to DefaultRxBudget frames in one pass, the
// skbuffs draw their data areas from the discoverable QuickPool service
// via the fast-path kmalloc route, and the whole batch is handed to the
// protocol stack through the GUID-negotiated com.NetIOBatch extension
// so its per-packet completion work amortizes too.  The donor driver
// itself is untouched — the poll loop is glue, installed through the
// same RequestIRQ seam the donor used (§4.7: specialization by
// configuration, never by forking).
//
// The loop needs no clock: the NIC raises the line on every
// empty→non-empty ring transition, only this poller drains its ring, and
// the dispatcher clears a line's pending bit before running the handler,
// so a frame that lands as a poll exits raises the line again.

// DefaultRxBudget is the per-interrupt frame budget of the polled
// receive loop.
const DefaultRxBudget = 16

// rxPoller is the budgeted poll loop bound to one receive ring of one
// open ether node.  A single-queue NIC gets one poller on ring 0; a NIC
// grown with ConfigureRxQueues gets one per ring, each on its own
// interrupt line — on a multi-CPU machine with affinity-routed lines
// the drains run concurrently, which is why the delivery path below
// uses only atomics and per-poller scratch.
type rxPoller struct {
	g    *Glue
	node *etherDev
	nic  *hw.NIC
	ring int
	// mirror: only ring 0's poller folds the NIC's (whole-device)
	// interrupt ledger into the stats rows, so deltas aren't counted
	// once per ring.
	mirror bool

	// batch is the sink's negotiated NetIOBatch extension; nil when the
	// sink only speaks per-frame Push (the path still works, frame by
	// frame).
	batch com.NetIOBatch

	// Reused per-poll scratch (interrupt-level code allocates as little
	// as it can).
	scratch [][]byte
	bios    []com.BufIO
	sizes   []uint

	// Interrupt-ledger mirror state: NIC counter values already folded
	// into the glue's stats rows.  Touched only by this ring's handler
	// (one dispatch context), so unsynchronized.
	lastRaised, lastSuppr uint64
}

// engageRxPoll switches a freshly opened ether node to the polled
// receive path — one poller per receive ring (a stock NIC has one;
// ConfigureRxQueues grows more).  A no-op unless the glue is fast-path
// and the node's chip is the simulated NIC.
func (g *Glue) engageRxPoll(e *etherDev) {
	chip, ok := e.ldev.Chip.(*nicChip)
	if g.pool == nil || !ok {
		return
	}
	nic := chip.nic
	// §4.4.2 negotiation: does the sink ingest batches?  One negotiated
	// reference per ring, so each poller releases its own.
	for q := 0; q < nic.RxQueues(); q++ {
		p := &rxPoller{
			g:       g,
			node:    e,
			nic:     nic,
			ring:    q,
			mirror:  q == 0,
			scratch: make([][]byte, DefaultRxBudget),
			bios:    make([]com.BufIO, 0, DefaultRxBudget),
			sizes:   make([]uint, 0, DefaultRxBudget),
		}
		if obj, err := e.recv.QueryInterface(com.NetIOBatchIID); err == nil {
			p.batch = obj.(com.NetIOBatch)
		}
		// Mirror deltas start at the NIC's current ledger, so the stats
		// rows count only the mitigated era.
		p.lastRaised, p.lastSuppr, _ = nic.RxIntrCounters()
		e.pollers = append(e.pollers, p)
		// Replace the donor ISR on the same line it requested (ring 0 is
		// that line; extra rings have their own); the donor driver keeps
		// believing its handler is installed, which is fine — both drain
		// the same ring, and Close's dev->stop frees the IRQ either way.
		line := nic.RxIRQ(q)
		g.env.Machine.Intr.SetHandler(line, func(int) { p.poll() })
		g.env.Machine.Intr.SetMask(line, false)
	}
	nic.SetRxIntrMitigation(true)
}

// stop disengages the poller: mitigation is switched off (re-raising
// the line if frames are pending, so nothing strands across the
// switch), and the negotiated batch sink is released.
func (p *rxPoller) stop() {
	p.nic.SetRxIntrMitigation(false)
	if p.batch != nil {
		p.batch.Release()
		p.batch = nil
	}
}

// poll is the interrupt handler: one budgeted drain pass over this
// poller's ring.  Device statistics are updated with atomics — sibling
// rings' handlers may run concurrently on other CPUs.
func (p *rxPoller) poll() {
	if p.mirror {
		p.mirrorIntrStats()
	}
	n := p.nic.RxPopBatchOn(p.ring, p.scratch, len(p.scratch))
	if n == 0 {
		return
	}
	g := p.g
	g.scRxPolls.Inc()
	ldev := p.node.ldev
	recv := p.node.recv
	bios := p.bios[:0]
	sizes := p.sizes[:0]
	for i := 0; i < n; i++ {
		f := p.scratch[i]
		p.scratch[i] = nil
		// The data area comes from kmalloc, which on a fast-path node
		// routes packet-sized blocks through the bound QuickPool service
		// (§6.2.10 on the receive side; fault point qp.recv fires here).
		// The copy is the busmaster DMA into it.
		skb := g.kern.AllocSKB(len(f))
		if skb == nil {
			atomic.AddUint64(&ldev.Stats.RxDropped, 1)
			continue
		}
		copy(skb.Put(len(f)), f)
		skb.Dev = ldev
		atomic.AddUint64(&ldev.Stats.RxPackets, 1)
		atomic.AddUint64(&ldev.Stats.RxBytes, uint64(len(f)))
		if recv == nil {
			skb.Free()
			continue
		}
		bios = append(bios, g.wrapSKB(skb)) // takes over the skb reference
		sizes = append(sizes, uint(skb.Len))
	}
	if len(bios) > 0 {
		g.scRxBatchFrames.Add(uint64(len(bios)))
		if p.batch != nil {
			_ = p.batch.PushBatch(bios, sizes)
		} else {
			for i, bio := range bios {
				_ = recv.Push(bio, sizes[i])
			}
		}
	}
	for i := range bios {
		bios[i] = nil
	}
	p.bios, p.sizes = bios[:0], sizes[:0]
	if n == len(p.scratch) {
		// Budget exhausted with frames possibly still ringed: re-raise
		// the line so the dispatcher schedules another pass (the NAPI
		// "not done" reschedule).
		p.nic.RxRearmOn(p.ring)
	}
}

// mirrorIntrStats folds the NIC's interrupt ledger into the glue's
// discoverable stats rows (rx.intr-raised / rx.intr-suppressed).  The
// NIC counts under its own lock; the rows lag by at most one poll.
func (p *rxPoller) mirrorIntrStats() {
	raised, suppr, _ := p.nic.RxIntrCounters()
	p.g.scRxIntrRaised.Add(raised - p.lastRaised)
	p.g.scRxIntrSuppressed.Add(suppr - p.lastSuppr)
	p.lastRaised, p.lastSuppr = raised, suppr
}
