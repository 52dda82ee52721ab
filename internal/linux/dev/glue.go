// Package linuxdev is the glue that encapsulates the kit's donor Linux
// driver code (oskit/internal/linux/legacy) and exports it through COM
// interfaces — the technique of paper §4.7.
//
// The glue has two faces.  Downward, it implements the donor-internal
// environment the drivers were written against: kmalloc honouring GFP
// flags (§4.7.7), cli/sti mapped to the machine's interrupt exclusion,
// sleep_on/wake_up emulated over the kit's sleep records (§4.7.6), and
// the direct physical-memory map some drivers assume (§4.7.8).  It
// manufactures no current task (§4.7.5): no donor driver here reads one.
// Upward, it exports each probed device as an fdev device node answering
// for EtherDev or BlkIO, and wraps skbuffs as BufIO objects without
// copying by planting a pointer in the skbuff's one-word COM slot
// (§4.7.3).
package linuxdev

import (
	"sync"

	"oskit/internal/com"
	"oskit/internal/core"
	"oskit/internal/hw"
	"oskit/internal/linux/legacy"
	"oskit/internal/stats"
)

// Glue is the per-machine encapsulation state: one donor "kernel image"
// plus its binding to the kit environment.
type Glue struct {
	env  *core.Env
	kern *legacy.Kernel

	mu      sync.Mutex
	nextEth int //oskit:guardedby mu
	nextHD  int //oskit:guardedby mu
	// route maps donor net devices to their COM nodes for the netif_rx
	// upcall.
	route map[*legacy.NetDevice]*etherDev //oskit:guardedby mu

	// nativeKmalloc selects Linux's own bucket allocator (the
	// monolithic baseline) over the glue's client-memory-service
	// mapping (the encapsulated configuration).
	nativeKmalloc bool //oskit:initonly

	// kmHook, when set, may veto a kmalloc before any allocator runs
	// (fault injection; see SetKmallocFaultHook).
	kmHook func(size uint32) bool //oskit:guardedby klMu

	// smp is the donor exclusion discipline, a fact of the machine read
	// once when the glue is built (CPUs > 1) and never settable: off,
	// the donor's cli seam is real interrupt exclusion, the donor
	// contract on a uniprocessor.  On, cli is per-CPU and gives no
	// cross-CPU exclusion — worse, a process-level thread that disables
	// interrupts while holding a protocol lock deadlocks against a
	// dispatcher whose pending handler wants that lock — so the cli seam
	// becomes a no-op.  Donor driver entry is excluded from outside:
	// transmit under the stack lock, receive on the donor ISR's single
	// line (or the per-ring pollers that replace it), and the two share
	// no driver state beyond kmalloc, which has klMu.  The
	// monolithic baseline (ProbeNative) keeps real cli on any machine:
	// it is that kernel's only exclusion.
	smp bool //oskit:initonly
	// klMu is the donor allocator exclusion on every machine size and in
	// both image kinds: it guards the kmalloc buckets and the fault hook.
	klMu klLock

	// pool is the allocator service registered under com.AllocatorIID
	// when the glue was built (normally a libc.QuickPool), or nil: the
	// glue's fast-path fact, fixed at construction.  A glue holding one
	// hands FeatSG devices gather skbuffs built from a producer's
	// com.SGBufIO fragment list instead of flattening, drains open
	// devices through the polled receive loop (rxpoll.go), and draws
	// packet-sized kmalloc blocks from it.  The glue holds one COM
	// reference.
	pool com.Allocator //oskit:initonly

	// com.Stats export: driver-glue hot-path counters, registered as
	// "linux_dev" in the environment's services registry.
	scKmallocs   *stats.Counter
	scKfrees     *stats.Counter
	scKmFails    *stats.Counter
	scBlkReads   *stats.Counter
	scBlkWrites  *stats.Counter
	scBlkRdBytes *stats.Counter
	scBlkWrBytes *stats.Counter
	// Transmit path-shape counters (§4.7.3 decision tree): which branch
	// each Push took.  xmit.flattened is the Table-1 send copy;
	// xmit.sg is the fast path that replaces it.
	scTxNative    *stats.Counter
	scTxMapped    *stats.Counter
	scTxSG        *stats.Counter
	scTxFlattened *stats.Counter
	// Polled-receive path-shape counters (rxpoll.go): drain passes,
	// frames that arrived batched, and the NIC's interrupt ledger
	// mirrored per poll.  All stay zero in the default configuration —
	// the pin TestPathShapeMatrix checks.
	scRxPolls          *stats.Counter
	scRxBatchFrames    *stats.Counter
	scRxIntrRaised     *stats.Counter
	scRxIntrSuppressed *stats.Counter
	// kmalloc bucket free lists: [class][dma?]; class i holds blocks of
	// 32<<i bytes.
	buckets [kmBuckets][2][]*legacy.KBuf //oskit:guardedby klMu
	// kbufs recycles the descriptors of blocks kfreed back to a client
	// service or the pool: the block is freed, its Go header reused.
	kbufs []*legacy.KBuf //oskit:guardedby klMu
}

const (
	kmMinShift = 5 // 32-byte minimum block
	kmBuckets  = 8 // up to 32<<7 = 4096
)

// klLock is the donor allocator lock: taken on the packet paths while
// the stack lock is held, at interrupt level by receive
// allocations, and above the QuickPool leaf the fast-path kmalloc route
// draws from.  Nothing under it takes cli.
//
//oskit:lockrank 75
type klLock struct{ sync.Mutex }

// bucketAlloc is the Linux-2.0-style power-of-two allocator.  Called
// with klMu held.
func (g *Glue) bucketAlloc(size uint32, gfp int) *legacy.KBuf {
	dma := 0
	var flags core.MemFlags
	if gfp&legacy.GFPDMA != 0 {
		dma = 1
		flags = core.MemDMA
	}
	cls, bs := kmClass(size)
	if cls < 0 {
		// Large allocation: straight to the client service.
		addr, buf, ok := g.env.MemAlloc(size, flags, 8)
		if !ok {
			return nil
		}
		return g.kbufLocked(addr, buf, false)
	}
	list := g.buckets[cls][dma]
	if len(list) == 0 {
		// Refill: one page carved into blocks.
		addr, buf, ok := g.env.MemAlloc(4096, flags, 4096)
		if !ok {
			return nil
		}
		for off := uint32(0); off+bs <= 4096; off += bs {
			list = append(list, &legacy.KBuf{Addr: addr + off, Data: buf[off : off+bs : off+bs]})
		}
	}
	b := list[len(list)-1]
	g.buckets[cls][dma] = list[:len(list)-1]
	return b
}

// bucketFree returns a block to its free list (large blocks go back to
// the client).  Called with klMu held.
func (g *Glue) bucketFree(b *legacy.KBuf) {
	cls, _ := kmClass(uint32(len(b.Data)))
	if cls < 0 {
		g.env.MemFree(b.Addr, uint32(len(b.Data)))
		g.putKbufLocked(b)
		return
	}
	dma := 0
	if b.Addr < hw.DMALimit {
		dma = 1
	}
	g.buckets[cls][dma] = append(g.buckets[cls][dma], b)
}

// kbufLocked returns a descriptor for a block, reusing a recycled one.
// Called with klMu held.
func (g *Glue) kbufLocked(addr uint32, data []byte, pooled bool) *legacy.KBuf {
	var b *legacy.KBuf
	if n := len(g.kbufs); n > 0 {
		b = g.kbufs[n-1]
		g.kbufs[n-1] = nil
		g.kbufs = g.kbufs[:n-1]
	} else {
		b = new(legacy.KBuf)
	}
	*b = legacy.KBuf{Addr: addr, Data: data, Pooled: pooled}
	return b
}

// putKbufLocked recycles the descriptor of a freed block.  Called with
// klMu held.
func (g *Glue) putKbufLocked(b *legacy.KBuf) {
	*b = legacy.KBuf{}
	g.kbufs = append(g.kbufs, b)
}

func kmClass(size uint32) (int, uint32) {
	bs := uint32(1) << kmMinShift
	for i := 0; i < kmBuckets; i++ {
		if size <= bs {
			return i, bs
		}
		bs <<= 1
	}
	return -1, 0
}

var (
	gluesMu sync.Mutex
	glues   = map[*core.Env]*Glue{}
)

// GlueFor returns (creating on first use) the machine's Linux glue: the
// analog of linking the donor code into that machine's kernel image.
// The registry forgets the glue when the machine halts.
// An encapsulated image binds the allocator service registered under
// com.AllocatorIID at that moment, if any — the fast path is part of
// the assembly, so it is registered before the first probe.
func GlueFor(env *core.Env) *Glue { return glueFor(env, false) }

// glueFor is GlueFor; native builds the monolithic baseline's image,
// which keeps Linux's own allocator and binds no service.
func glueFor(env *core.Env, native bool) *Glue {
	gluesMu.Lock()
	defer gluesMu.Unlock()
	if g, ok := glues[env]; ok {
		if native && !g.nativeKmalloc {
			panic("linuxdev: ProbeNative on a machine whose drivers are already encapsulated")
		}
		return g
	}
	var pool com.Allocator
	if !native {
		if obj := env.Registry.First(com.AllocatorIID); obj != nil {
			pool = obj.(com.Allocator) // First's reference becomes the glue's
		}
	}
	g := &Glue{env: env, route: map[*legacy.NetDevice]*etherDev{},
		nativeKmalloc: native, smp: !native && env.Machine.CPUs() > 1, pool: pool}
	set := stats.NewSet("linux_dev")
	g.scKmallocs = set.Counter("kmalloc.allocs")
	g.scKfrees = set.Counter("kmalloc.frees")
	g.scKmFails = set.Counter("kmalloc.failures")
	g.scBlkReads = set.Counter("blkio.reads")
	g.scBlkWrites = set.Counter("blkio.writes")
	g.scBlkRdBytes = set.Counter("blkio.read_bytes")
	g.scBlkWrBytes = set.Counter("blkio.write_bytes")
	g.scTxNative = set.Counter("xmit.native")
	g.scTxMapped = set.Counter("xmit.mapped")
	g.scTxSG = set.Counter("xmit.sg")
	g.scTxFlattened = set.Counter("xmit.flattened")
	g.scRxPolls = set.Counter("rx.polls")
	g.scRxBatchFrames = set.Counter("rx.batched-frames")
	g.scRxIntrRaised = set.Counter("rx.intr-raised")
	g.scRxIntrSuppressed = set.Counter("rx.intr-suppressed")
	env.Registry.Register(com.StatsIID, set)
	set.Release()
	g.kern = g.buildKernel()
	glues[env] = g
	env.Machine.AtHalt(func() {
		gluesMu.Lock()
		delete(glues, env)
		gluesMu.Unlock()
	})
	return g
}

// Kernel exposes the donor environment (tests; donor-level poking).
func (g *Glue) Kernel() *legacy.Kernel { return g.kern }

// SetKmallocFaultHook installs (or, with nil, removes) a kmalloc
// fault-injection hook: when it returns true the allocation fails as
// GFP exhaustion would (counted in kmalloc.failures).  The write is
// made under the donor allocator lock so the hook may be toggled while
// drivers allocate.
func (g *Glue) SetKmallocFaultHook(h func(size uint32) bool) {
	g.klMu.Lock()
	g.kmHook = h
	g.klMu.Unlock()
}

// buildKernel wires every donor service to the kit environment.
func (g *Glue) buildKernel() *legacy.Kernel {
	env := g.env
	k := &legacy.Kernel{}

	// §4.7.7 territory: memory allocation.  In the encapsulated
	// configuration the donor kmalloc maps to the client memory service
	// — by default the kit's LMM, whose first-fit flexibility is not
	// built for a per-packet allocation rate; the paper's §6.2.10
	// profiling names exactly this overhead.  In the *monolithic* Linux
	// baseline (ProbeNative), kmalloc is Linux's own power-of-two
	// bucket allocator, which is what the real Linux kernel ran.
	// Either way the allocator state sits behind one lock, klMu, on
	// every machine size.
	k.Kmalloc = func(size uint32, gfp int) *legacy.KBuf {
		g.klMu.Lock()
		var b *legacy.KBuf
		if g.kmHook != nil && g.kmHook(size) {
			// Injected exhaustion: fail before either allocator runs.
		} else if g.nativeKmalloc {
			b = g.bucketAlloc(size, gfp)
		} else if g.pool != nil && size <= 4096 {
			// Fast path: packet-sized blocks (skbuff data areas, driver
			// staging) come from the bound allocator service.  The GFP
			// DMA constraint is waived: the simulated busmaster engine
			// addresses all memory, like PCI-era hardware without the
			// ISA 16 MB limit.
			if addr, buf, ok := g.pool.AllocMem(size); ok {
				b = g.kbufLocked(addr, buf, true)
			}
		} else {
			var flags core.MemFlags
			if gfp&legacy.GFPDMA != 0 {
				flags |= core.MemDMA
			}
			if addr, buf, ok := env.MemAlloc(size, flags, 8); ok {
				b = g.kbufLocked(addr, buf, false)
			}
		}
		g.klMu.Unlock()
		if b != nil {
			g.scKmallocs.Inc()
		} else {
			g.scKmFails.Inc()
		}
		return b
	}
	k.Kfree = func(b *legacy.KBuf) {
		g.klMu.Lock()
		switch {
		case b.Pooled:
			g.pool.FreeMem(b.Addr, uint32(len(b.Data)))
			g.putKbufLocked(b)
		case g.nativeKmalloc:
			g.bucketFree(b)
		default:
			env.MemFree(b.Addr, uint32(len(b.Data)))
			g.putKbufLocked(b)
		}
		g.klMu.Unlock()
		g.scKfrees.Inc()
	}

	// Interrupt exclusion.  At interrupt level these are no-ops: the
	// dispatcher already holds the exclusion, exactly like EFLAGS.IF
	// being clear inside a real handler.  In SMP mode the whole seam is
	// a no-op (see the smp field).
	k.SaveFlags = func() uint32 {
		if g.smp || env.InIntr() {
			return 1
		}
		return 0
	}
	k.Cli = func() {
		if g.smp {
			return
		}
		if !env.InIntr() {
			env.IntrDisable()
		}
	}
	k.RestoreFlags = func(f uint32) {
		if f == 0 {
			env.IntrEnable()
		}
	}

	k.RequestIRQ = func(irq int, handler func(int), name string) error {
		env.Machine.Intr.SetHandler(irq, handler)
		env.Machine.Intr.SetMask(irq, false)
		return nil
	}
	k.FreeIRQ = func(irq int) {
		env.Machine.Intr.SetMask(irq, true)
		env.Machine.Intr.SetHandler(irq, nil)
	}

	// §4.7.6: sleep/wakeup over sleep records.  SleepOn follows the
	// donor contract: entered with interrupts disabled, atomically
	// registers the sleeper, re-enables while blocked, returns with
	// interrupts disabled again.
	//
	// wqRec materializes a queue's sleep record under a lock: in SMP
	// mode the completion handler races the sleeper's registration with
	// no cli to exclude it, so both sides must agree on ONE record — a
	// wakeup landing before the sleep is then remembered by the record
	// (the binary-semaphore contract) instead of being lost.
	var wqMu sync.Mutex
	wqRec := func(q *legacy.WaitQueue) *core.SleepRec {
		wqMu.Lock()
		defer wqMu.Unlock()
		rec, _ := q.Glue.(*core.SleepRec)
		if rec == nil {
			rec = env.SleepInit()
			q.Glue = rec
		}
		return rec
	}
	k.SleepOn = func(q *legacy.WaitQueue) {
		rec := wqRec(q)
		if g.smp {
			// SMP: this kernel's own cli seam is a no-op, but an outer
			// component (the file system's splbio bracketing a disk
			// read) may still hold the boot CPU's exclusion — sleep_on
			// drops whatever this thread holds, exactly as on UP, or
			// the completion handler could never dispatch.
			depth := env.Machine.Intr.DropAllHeld()
			env.Sleep(rec)
			if depth > 0 {
				env.Machine.Intr.RestoreAll(depth)
			}
			return
		}
		// sleep_on enables interrupts *fully* while blocked (sti, not one
		// restore_flags level): the caller may be nested under other
		// components' exclusion sections.
		depth := env.Machine.Intr.DropAll()
		env.Sleep(rec)
		env.Machine.Intr.RestoreAll(depth)
	}
	k.WakeUp = func(q *legacy.WaitQueue) {
		var rec *core.SleepRec
		if g.smp {
			rec = wqRec(q)
		} else {
			exclude := !env.InIntr()
			if exclude {
				env.IntrDisable()
			}
			rec, _ = q.Glue.(*core.SleepRec)
			if exclude {
				env.IntrEnable()
			}
		}
		if rec != nil {
			env.Wakeup(rec)
		}
	}

	k.AddTimer = env.AfterTicks
	k.Printk = func(format string, args ...any) { env.Log("linux: "+trimNL(format), args...) }

	// §4.7.8: the direct physical map the s3c59x-class drivers assume.
	// On a client OS without such a map these drivers are unusable;
	// the simulated PC direct-maps everything, so the glue provides it.
	k.PhysToVirt = func(addr, size uint32) []byte {
		return env.Machine.Mem.MustSlice(addr, size)
	}

	// netif_rx: route each received skbuff to its device's registered
	// receive NetIO, as a zero-copy BufIO.  Runs at interrupt level.
	k.NetifRx = func(skb *legacy.SKBuff) {
		g.mu.Lock()
		node := g.route[skb.Dev]
		g.mu.Unlock()
		if node == nil || node.recv == nil {
			skb.Free()
			return
		}
		bio := g.wrapSKB(skb) // takes over the skb reference
		if err := node.recv.Push(bio, uint(skb.Len)); err != nil {
			// The sink refused the packet; Push consumed the ref
			// regardless (COM rules), nothing more to do.
			_ = err
		}
	}

	return k
}

// ProbeNative probes the machine's bus with the donor Ethernet drivers
// and returns the raw legacy net devices, bypassing the COM export.
// This is how the *monolithic* Linux baseline of Tables 1–2 is
// configured: the Linux protocol stack attaches to the driver directly,
// donor representation end to end, no glue in the packet path.
func ProbeNative(env *core.Env) (*legacy.Kernel, []*legacy.NetDevice) {
	g := glueFor(env, true) // the monolithic kernel keeps Linux's fast kmalloc and cli
	var devs []*legacy.NetDevice
	for _, bd := range env.Machine.Bus.Devices() {
		nic, ok := bd.HW.(*hw.NIC)
		if !ok {
			continue
		}
		chip := &nicChip{nic: nic, vendor: bd.Vendor, device: bd.Device}
		g.mu.Lock()
		name := "eth" + string(rune('0'+g.nextEth))
		g.mu.Unlock()
		var ldev *legacy.NetDevice
		if ldev = legacy.SNE2KProbe(g.kern, chip, bd.IRQ, name); ldev == nil {
			ldev = legacy.S3C59XProbe(g.kern, chip, bd.IRQ, name)
		}
		if ldev == nil {
			continue
		}
		g.mu.Lock()
		g.nextEth++
		g.mu.Unlock()
		devs = append(devs, ldev)
	}
	return g.kern, devs
}

func trimNL(s string) string {
	for len(s) > 0 && s[len(s)-1] == '\n' {
		s = s[:len(s)-1]
	}
	return s
}

// ---- chip adapters: the simulated silicon as donor register interfaces.

// nicChip adapts hw.NIC to legacy.EtherChip.
type nicChip struct {
	nic            *hw.NIC
	vendor, device uint16
}

func (c *nicChip) IDs() (uint16, uint16) { return c.vendor, c.device }
func (c *nicChip) MacAddr() [6]byte      { return c.nic.Mac }
func (c *nicChip) TxFrame(frame []byte)  { c.nic.Transmit(frame) }

// TxFrameGather implements legacy.GatherChip: the simulated NIC's
// gather-DMA engine fetches the frame from the fragment list in one pass
// (the same single copy a contiguous transmit costs).
func (c *nicChip) TxFrameGather(parts [][]byte) { c.nic.TransmitGather(parts) }

// RxFrame is the PIO path: the frame is copied off the simulated card.
func (c *nicChip) RxFrame() []byte { return c.nic.RxPop() }

// RxFrameInto is the busmaster path: the "DMA engine" writes directly
// into the caller's buffer.  A nil dst discards the frame.
func (c *nicChip) RxFrameInto(dst []byte) int {
	f := c.nic.RxPop()
	if f == nil {
		return 0
	}
	if dst == nil {
		return len(f)
	}
	return copy(dst, f)
}

// diskChip adapts hw.Disk to legacy.DiskChip.  Request records are
// recycled: one goes back to the free list when its completion is
// reaped.
type diskChip struct {
	disk           *hw.Disk
	vendor, device uint16

	mu   sync.Mutex
	free []*hw.DiskReq //oskit:guardedby mu
}

func newDiskChip(d *hw.Disk, vendor, device uint16) *diskChip {
	return &diskChip{disk: d, vendor: vendor, device: device}
}

func (c *diskChip) IDs() (uint16, uint16) { return c.vendor, c.device }
func (c *diskChip) Sectors() uint32       { return c.disk.Sectors() }

func (c *diskChip) Start(write bool, sector, count uint32, buf []byte, tag any) {
	c.mu.Lock()
	var r *hw.DiskReq
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		r = new(hw.DiskReq)
	}
	c.mu.Unlock()
	*r = hw.DiskReq{Write: write, Sector: sector, Count: count, Buf: buf, Tag: tag}
	c.disk.Submit(r)
}

func (c *diskChip) Done() (any, error, bool) {
	r := c.disk.Reap()
	if r == nil {
		return nil, nil, false
	}
	tag, err := r.Tag, r.Err
	*r = hw.DiskReq{}
	c.mu.Lock()
	c.free = append(c.free, r)
	c.mu.Unlock()
	return tag, err, true
}
