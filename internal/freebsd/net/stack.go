package bsdnet

import (
	"sync"

	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/stats"
)

// Stack is one instance of the FreeBSD networking component.
//
// Initialization follows the §5 sequence: create the stack
// (oskit_freebsd_net_init, which also yields the socket factory), bind a
// driver (oskit_freebsd_net_open_ether_if — the components exchange
// NetIO callbacks), then configure the interface
// (oskit_freebsd_net_ifconfig).
type Stack struct {
	g *bsdglue.Glue //oskit:initonly

	// mu is the stack lock (rank 10, see locks.go): all protocol state —
	// pcbs and their socket buffers, demux, listener queues, port
	// occupancy, the TIME_WAIT queue, reassembly, pings, UDP, the ARP
	// cache, the interface output hand-off and the event allocator.  It
	// is the component's one exclusion on every machine size: the stack
	// calls no spl.  Only the glue files take it, at each entry: the
	// process-level entries, the NetIO receive entries and the native
	// drain (interrupt level), and the slow-timer tick; sleep releases it
	// across every block through ComponentLock.Unlocked.
	mu stackLock

	// freeMu (rank 72) guards the free lists of mbufs, clusters (mbuf.go)
	// and batched-receive contexts (PushBatch), and cluster refcounts.
	freeMu    freeLock
	mbufFree  *Mbuf      //oskit:guardedby freeMu  linked through Next
	mclFree   []mcluster //oskit:guardedby freeMu
	mclBase   uint32     //oskit:guardedby freeMu  refcount table base (addr >> MCLSHIFT)
	mclRefcnt []int16    //oskit:guardedby freeMu
	rxCtxFree *rxCtx     //oskit:guardedby freeMu

	// Interface state (one Ethernet interface per stack instance, like
	// the examples in §5; nothing below prevents generalizing).
	// output ships one finished frame chain; set by OpenEtherIf (COM
	// BufIO export) or AttachNative (donor mbuf driver).
	output func(m *Mbuf) //oskit:initonly
	ifMAC  [6]byte       //oskit:initonly
	ifIP   IPAddr        //oskit:initonly
	ifMask IPAddr        //oskit:initonly
	gw     IPAddr        //oskit:initonly  optional default gateway

	arp arpTable

	// pktPool is the allocator service registered under
	// com.AllocatorIID when the stack was built, or nil: the stack's
	// fast-path fact, on which SendFile negotiates the file's zero-copy
	// page seam (E15).  The stack holds one COM reference.
	pktPool com.Allocator //oskit:initonly

	// Protocol state.  The pcb slices feed the timer sweeps; the maps
	// are the hashed demux and port-occupancy indexes (see inpcb.go).
	udpPCBs []*udpPCB              //oskit:guardedby mu
	tcpPCBs []*tcpcb               //oskit:guardedby mu
	slowPCB []*tcpcb               //oskit:guardedby mu  the slow sweep's copy of tcpPCBs, reused
	ipReasm map[reasmKey]*reasmQ   //oskit:guardedby mu
	pings   map[uint16]*pingWaiter //oskit:guardedby mu
	ipID    uint16                 //oskit:guardedby mu
	issSeed uint32                 //oskit:initonly

	tcpHash   map[tcpKey]*tcpcb  //oskit:guardedby mu  connected pcbs by 4-tuple
	tcpListen map[uint16]*tcpcb  //oskit:guardedby mu  listeners by local port
	tcpPorts  map[uint16]int     //oskit:guardedby mu  TCP local-port occupancy
	udpHash   map[udpKey]*udpPCB //oskit:guardedby mu  connected UDP pcbs by 4-tuple
	udpWild   map[uint16]*udpPCB //oskit:guardedby mu  unconnected UDP pcbs by port
	udpPorts  map[uint16]int     //oskit:guardedby mu  UDP local-port occupancy

	nextEphemeral uint16 //oskit:guardedby mu  rotating hint into the dynamic range

	// TIME_WAIT recycling: lingering pcbs in FIFO order, the count of
	// live ones, and the cap beyond which the oldest are reclaimed so
	// churn cannot pin ports and pcbs for a full 2MSL each.
	twQueue     []*tcpcb //oskit:guardedby mu
	twLive      int      //oskit:guardedby mu
	maxTimeWait int      //oskit:guardedby mu

	nextEvent uint32 //oskit:guardedby mu  tsleep event id allocator

	// The slow-timer registration: the tick re-arms it at interrupt
	// level while Close detaches it from an arbitrary goroutine, so the
	// pair lives under its own mutex rather than the interrupt
	// exclusion (Close must work without entering the component).
	slowMu   sync.Mutex
	stopSlow func() //oskit:guardedby slowMu
	closed   bool   //oskit:guardedby slowMu

	// statsSet is the stack's com.Stats export; sc holds the
	// pre-resolved handles the hot paths update (see netstats).
	statsSet *stats.Set //oskit:initonly
	sc       netstats   //oskit:initonly
}

// rxCtx is one receive pass's batching state, threaded down the input
// path by the goroutine ingesting the batch (so concurrent receive
// contexts on an SMP machine never share it).  While batching, the
// in-order TCP data path defers its per-segment wakeup, and any ACK the
// delayed-ACK rule makes due, onto pend, and rxFlush runs them once per
// (connection, batch).
type rxCtx struct {
	batching bool
	pend     []*tcpcb
	next     *rxCtx // the stack's free list
}

// netstats is the stack's pre-resolved statistics handles, updated
// lock-free on the packet hot paths (often at interrupt level) and
// published through the discoverable com.Stats interface under the
// "subsys.counter" naming scheme.
type netstats struct {
	mbufAllocs, mbufFrees       *stats.Counter
	clAllocs, clFrees, clShares *stats.Counter
	mbufFree, clFree            *stats.Gauge
	extWraps                    *stats.Counter
	tcpSegsIn, tcpSegsOut       *stats.Counter
	tcpRexmt                    *stats.Counter
	tcpDropBadCsum, tcpDropDup  *stats.Counter
	tcpDropWnd, tcpOOO          *stats.Counter
	tcpDropReass                *stats.Counter
	tcpAcceptOvfl               *stats.Counter
	tcpTWRecycled               *stats.Counter
	tcpDelackTimeouts           *stats.Counter
	arpIn, arpOut, arpBadSender *stats.Counter
	arpDropUnreach, arpHeldDrop *stats.Counter
	ipIn, ipOut, ipBadCsum      *stats.Counter
	ipFragsIn, ipReasmOK        *stats.Counter
	ipDropNoRoute               *stats.Counter
	udpIn, udpOut               *stats.Counter
	icmpEchoReqIn               *stats.Counter
	icmpEchoRepIn               *stats.Counter
	icmpEchoRepOut              *stats.Counter
	rxZeroCopy, rxCopied        *stats.Counter
	txContiguous, txChained     *stats.Counter
	tcpPCBCount                 *stats.Gauge
	sockbufCC                   *stats.Gauge
	tcpRxBytes                  *stats.Histogram
	rxBatches, rxBatchFrames    *stats.Counter
	rxAcksCoalesced             *stats.Counter
	sfPagesMapped               *stats.Counter
	sfBytesCopied               *stats.Counter
	sfZCBytes                   *stats.Counter
}

// NewStack creates the networking component over a BSD glue environment
// (oskit_freebsd_net_init), binding the allocator service registered
// under com.AllocatorIID at this moment, if any (see pktPool).
func NewStack(g *bsdglue.Glue) *Stack {
	var pool com.Allocator
	if obj := g.Env().Registry.First(com.AllocatorIID); obj != nil {
		pool = obj.(com.Allocator) // First's reference becomes the stack's
	}
	s := &Stack{
		pktPool:     pool,
		g:           g,
		ipReasm:     map[reasmKey]*reasmQ{},
		issSeed:     uint32(g.Ticks())*2654435761 + 12345,
		tcpHash:     map[tcpKey]*tcpcb{},
		tcpListen:   map[uint16]*tcpcb{},
		tcpPorts:    map[uint16]int{},
		udpHash:     map[udpKey]*udpPCB{},
		udpWild:     map[uint16]*udpPCB{},
		udpPorts:    map[uint16]int{},
		maxTimeWait: tcpDefaultMaxTimeWait,
	}
	s.initStats()
	s.arp.init(s)
	// BSD slow timer: every 500 ms (50 ticks of the 10 ms clock), for
	// TCP retransmit/persist/keep and ARP/reassembly aging.
	var tick func()
	tick = func() {
		s.slowMu.Lock()
		closed := s.closed
		s.slowMu.Unlock()
		if closed {
			return
		}
		s.slowTimo()
		stop := s.g.Env().AfterTicks(slowTimoTicks, tick)
		s.slowMu.Lock()
		if s.closed {
			s.stopSlow = nil
			s.slowMu.Unlock()
			stop()
			return
		}
		s.stopSlow = stop
		s.slowMu.Unlock()
	}
	s.stopSlow = s.g.Env().AfterTicks(slowTimoTicks, tick)
	return s
}

const slowTimoTicks = 50 // 500 ms at the 10 ms clock

// initStats builds the stack's com.Stats export, resolves the hot-path
// handles once, and registers the set in the services registry so any
// client can discover it under com.StatsIID (§4.2.2).
func (s *Stack) initStats() {
	set := stats.NewSet("freebsd_net")
	s.statsSet = set
	s.sc = netstats{
		mbufAllocs: set.Counter("mbuf.allocs"),
		mbufFrees:  set.Counter("mbuf.frees"),
		clAllocs:   set.Counter("mbuf.cluster_allocs"),
		clFrees:    set.Counter("mbuf.cluster_frees"),
		clShares:   set.Counter("mbuf.cluster_shares"),
		extWraps:   set.Counter("mbuf.ext_wraps"),
		// Free-list blocks and clusters (mbstat's MT_FREE, m_clfree).
		mbufFree:       set.Gauge("mbuf.free"),
		clFree:         set.Gauge("mbuf.cluster_free"),
		tcpSegsIn:      set.Counter("tcp.segs_in"),
		tcpSegsOut:     set.Counter("tcp.segs_out"),
		tcpRexmt:       set.Counter("tcp.rexmt"),
		tcpDropBadCsum: set.Counter("tcp.drop_bad_csum"),
		tcpDropDup:     set.Counter("tcp.drop_dup"),
		tcpDropWnd:     set.Counter("tcp.drop_out_of_window"),
		tcpOOO:         set.Counter("tcp.ooo_segs"),
		tcpDropReass:   set.Counter("tcp.drop_reass_full"),
		// Connection-churn observability: SYNs dropped at a full listen
		// queue (the backlog ceiling made visible), TIME_WAIT pcbs
		// reclaimed by the lingering-pcb cap, and the live pcb count.
		tcpAcceptOvfl: set.Counter("tcp.accept_overflows"),
		tcpTWRecycled: set.Counter("tcp.timewait_recycled"),
		// Delayed ACKs nothing carried before the slow-timer sweep sent
		// them bare: the latency the delay cost.
		tcpDelackTimeouts: set.Counter("tcp.delack_timeouts"),
		// ARP frames refused because the sender-hardware field disagreed
		// with the Ethernet source station (corruption or spoofing).
		arpBadSender: set.Counter("arp.bad_sender"),
		arpIn:        set.Counter("arp.in"),
		arpOut:       set.Counter("arp.out"),
		// Held packets freed when resolution gave up (BSD's EHOSTDOWN).
		arpDropUnreach: set.Counter("arp.dropped_unreach"),
		// Held packets pushed out of a full per-entry queue, oldest first.
		arpHeldDrop:    set.Counter("arp.held_dropped"),
		ipIn:           set.Counter("ip.in"),
		ipOut:          set.Counter("ip.out"),
		ipBadCsum:      set.Counter("ip.bad_csum"),
		ipFragsIn:      set.Counter("ip.frags_in"),
		ipReasmOK:      set.Counter("ip.reasm_ok"),
		ipDropNoRoute:  set.Counter("ip.dropped_no_route"),
		udpIn:          set.Counter("udp.in"),
		udpOut:         set.Counter("udp.out"),
		icmpEchoReqIn:  set.Counter("icmp.echo_req_in"),
		icmpEchoRepIn:  set.Counter("icmp.echo_rep_in"),
		icmpEchoRepOut: set.Counter("icmp.echo_rep_out"),
		// Representation crossings at the NetIO seam: inbound packets
		// wrapped via Map or copied via Read, outbound packets exported
		// as one contiguous run or as a chain.
		rxZeroCopy:   set.Counter("ether.rx_zero_copy"),
		rxCopied:     set.Counter("ether.rx_copied"),
		txContiguous: set.Counter("ether.tx_contiguous"),
		txChained:    set.Counter("ether.tx_chained"),
		tcpPCBCount:  set.Gauge("tcp.pcbs"),
		sockbufCC:    set.Gauge("sockbuf.occupancy"),
		// Inbound TCP payload sizes: runts, mid-size, MSS-full segments.
		tcpRxBytes: set.Histogram("tcp.rx_seg_bytes", []uint64{1, 128, 512, 1024, 1460}),
		// Batched receive (NetIOBatch): batches ingested, frames they
		// carried, and in-order ACK+wakeup pairs coalesced into the
		// end-of-batch flush.
		rxBatches:       set.Counter("ether.rx_batches"),
		rxBatchFrames:   set.Counter("ether.rx_batch_frames"),
		rxAcksCoalesced: set.Counter("tcp.rx_acks_coalesced"),
		// The sendfile ledger (E15): file pages exported as pinned
		// ext-mbufs, payload bytes the copy fallback moved (zero on a
		// pure zero-copy run — the benchmark pin), and payload bytes
		// that travelled without copying.
		sfPagesMapped: set.Counter("sendfile.pages_mapped"),
		sfBytesCopied: set.Counter("sendfile.bytes_copied"),
		sfZCBytes:     set.Counter("sendfile.zc_bytes"),
	}
	s.g.Env().Registry.Register(com.StatsIID, set)
	set.Release() // the registry's reference keeps it alive
}

// StatsSet returns the stack's com.Stats export (open implementation,
// §4.6); the same object is discoverable via the services registry.
func (s *Stack) StatsSet() *stats.Set { return s.statsSet }

// Glue returns the stack's BSD environment (tests).
func (s *Stack) Glue() *bsdglue.Glue { return s.g }

// sleep is the donor tsleep inside an entry: it blocks the current
// process on event with the stack lock released across the block, so
// the receive interrupt and other threads can enter, and returns with
// it held again.  The two-phase sleep leaves no lost-wakeup window
// between the unlock and the block; callers recheck their condition.
func (s *Stack) sleep(event uint32, wmesg string) {
	p := s.g.SleepPrepare(event, wmesg)
	s.mu.Unlocked(func() { s.g.SleepCommit(p) })
}

// newEvent mints a tsleep event handle.  Called with mu held.
func (s *Stack) newEvent() uint32 {
	s.nextEvent += 8
	return 0x40000000 + s.nextEvent
}

// OpenEtherIf binds the stack to an Ethernet device: the two components
// exchange NetIO callbacks and neither learns the other's buffer
// representation (§5).
func (s *Stack) OpenEtherIf(dev com.EtherDev) error {
	recv := &stackRecv{s: s}
	recv.Init()
	send, err := dev.Open(recv)
	if err != nil {
		return err
	}
	s.ifAttach(dev.GetAddr(), func(m *Mbuf) {
		bio := s.wrapMbuf(m)
		_ = send.Push(bio, uint(m.PktLen)) // Push consumes the reference
	})
	return nil
}

// ifAttach publishes the interface binding the way Ifconfig publishes
// the address: configuration-before-traffic, written under the stack
// lock.
func (s *Stack) ifAttach(mac [6]byte, output func(m *Mbuf)) {
	s.mu.Enter()
	s.ifMAC = mac
	s.output = output
	s.mu.Leave()
}

// Ifconfig assigns the interface address (oskit_freebsd_net_ifconfig).
// Configuration happens before traffic (the data paths read it
// unguarded; see locks.go).
func (s *Stack) Ifconfig(ip, mask IPAddr) {
	s.mu.Enter()
	s.ifIP = ip
	s.ifMask = mask
	s.mu.Leave()
}

// SetGateway sets the default route (configuration-before-traffic, like
// Ifconfig).
func (s *Stack) SetGateway(gw IPAddr) {
	s.mu.Enter()
	s.gw = gw
	s.mu.Leave()
}

// Close unbinds timers (the interface itself is closed by the client,
// which owns the device).  The closed flag keeps a concurrently-firing
// tick from re-arming after the cancel; a slow sweep already in flight
// finishes on its own (Close does not free any stack state).
func (s *Stack) Close() {
	s.slowMu.Lock()
	s.closed = true
	stop := s.stopSlow
	s.stopSlow = nil
	s.slowMu.Unlock()
	if stop != nil {
		stop()
	}
}

// onLink reports whether dst is directly reachable.
func (s *Stack) onLink(dst IPAddr) bool {
	for i := range dst {
		if dst[i]&s.ifMask[i] != s.ifIP[i]&s.ifMask[i] {
			return false
		}
	}
	return true
}

// route picks the next hop for dst, or fails (no route).
func (s *Stack) route(dst IPAddr) (IPAddr, bool) {
	if s.onLink(dst) || dst.IsBroadcast() {
		return dst, true
	}
	if s.gw != (IPAddr{}) {
		return s.gw, true
	}
	return IPAddr{}, false
}

// slowTimo runs at interrupt level every 500 ms, under the stack lock.
func (s *Stack) slowTimo() {
	s.mu.Enter()
	s.tcpSlowTimo()
	s.reasmAge()
	s.arp.age()
	s.mu.Leave()
}

// --- receive path.

// stackRecv is the NetIO the stack hands the driver; Push runs at
// interrupt level.
type stackRecv struct {
	com.RefCount
	s *Stack
}

// QueryInterface implements com.IUnknown.  The sink also answers for
// the NetIOBatch extension (§4.4.2): a polling producer that negotiates
// it delivers whole batches through PushBatch, and the stack amortizes
// its per-packet completion work across each batch.
func (r *stackRecv) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.NetIOIID, com.NetIOBatchIID:
		r.AddRef()
		return r, nil
	}
	return nil, com.ErrNoInterface
}

// Push implements com.NetIO: one inbound frame.
func (r *stackRecv) Push(pkt com.BufIO, size uint) error {
	r.s.mu.Enter()
	defer r.s.mu.Leave()
	return r.s.rxOne(pkt, size, nil)
}

// PushBatch implements com.NetIOBatch: one softint pass ingests the
// whole batch, then rxFlush runs the deferred per-connection wakeup and
// due ACK once each — so a 16-frame batch into one connection costs one
// reader wakeup and one ACK instead of sixteen, while each frame is
// still individually wrapped zero-copy (the RxZeroCopy property is
// per-packet and unchanged).  The batching state lives in an rxCtx owned
// by this call, so concurrent batches on distinct CPUs don't interfere.
func (r *stackRecv) PushBatch(pkts []com.BufIO, sizes []uint) error {
	s := r.s
	if len(pkts) != len(sizes) {
		for _, pkt := range pkts {
			pkt.Release()
		}
		return com.ErrInval
	}
	// The batching state comes from the stack's free list, so its pend
	// list keeps the storage it grew.
	s.freeMu.Lock()
	ctx := s.rxCtxFree
	if ctx != nil {
		s.rxCtxFree = ctx.next
	}
	s.freeMu.Unlock()
	if ctx == nil {
		ctx = &rxCtx{batching: true}
	}
	var firstErr error
	s.mu.Enter()
	for i, pkt := range pkts {
		if err := s.rxOne(pkt, sizes[i], ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.rxFlush(ctx)
	s.mu.Leave()
	s.freeMu.Lock()
	ctx.next = s.rxCtxFree
	s.rxCtxFree = ctx
	s.freeMu.Unlock()
	s.sc.rxBatches.Inc()
	s.sc.rxBatchFrames.Add(uint64(len(pkts)))
	return firstErr
}

// rxFlush completes one batched receive pass: every connection that
// accepted in-order data during the batch gets its single deferred
// reader wakeup, and its single ACK if one fell due (unless something
// already ACKed on its behalf, or the connection died mid-batch).  An
// ACK not yet due stays delayed, exactly as after a per-frame Push.
// Called with the stack lock held.
func (s *Stack) rxFlush(ctx *rxCtx) {
	for i, tp := range ctx.pend {
		ctx.pend[i] = nil
		if !tp.rxPendWake {
			continue
		}
		tp.rxPendWake = false
		s.g.Wakeup(tp.rcvBuf.event)
		if tp.rxAckOwed && tp.state != tcpsClosed {
			s.tcpRespondACK(tp)
		}
		tp.rxAckOwed = false
	}
	ctx.pend = ctx.pend[:0]
}

// rxOne ingests one inbound frame under the stack lock.  If the
// producer's buffer can be mapped (skbuffs always can), the frame is
// wrapped as an external mbuf with zero copies; otherwise it is read
// into a fresh chain.
func (s *Stack) rxOne(pkt com.BufIO, size uint, ctx *rxCtx) error {
	var m *Mbuf
	if data, err := pkt.Map(0, size); err == nil {
		m = s.MExt(pkt, data) // holds its own reference
		s.sc.rxZeroCopy.Inc()
	} else {
		m = s.MGetHdr()
		if m == nil {
			pkt.Release()
			return com.ErrNoMem
		}
		if size > uint(len(m.store)-m.off) && !m.MClGet() {
			m.Free()
			pkt.Release()
			return com.ErrNoMem
		}
		if size > uint(len(m.store)-m.off) {
			// Larger than a cluster: no valid ethernet frame is.  The
			// producer's size is untrusted input — drop, don't panic.
			m.Free()
			pkt.Release()
			return com.ErrInval
		}
		buf := m.store[m.off : m.off+int(size)]
		n, err := pkt.Read(buf, 0)
		if err != nil || n < size {
			m.Free()
			pkt.Release()
			return com.ErrIO
		}
		m.len = int(size)
		m.PktLen = int(size)
		s.sc.rxCopied.Inc()
	}
	s.etherInput(m, ctx)
	pkt.Release()
	return nil
}

// AllocBufIO implements com.NetIO; the stack has no preference for
// inbound buffers (it maps whatever arrives).
func (r *stackRecv) AllocBufIO(size uint) (com.BufIO, error) {
	return nil, com.ErrNotImplemented
}

// Ping sends one echo request and blocks (process level) until the reply
// or a timeout in slow-timer ticks of the clock; it returns the RTT in
// clock ticks.
func (s *Stack) Ping(dst IPAddr, seq uint16, payload []byte, timeoutTicks uint64) (uint64, bool) {
	defer s.g.Enter("ping")()
	s.mu.Enter()
	defer s.mu.Leave()
	w := s.pingSend(dst, seq, payload)
	if w == nil {
		return 0, false
	}
	cancel := s.g.Env().AfterTicks(timeoutTicks, func() {
		// Interrupt level: wake the sleeper; it notices !done.
		s.mu.Enter()
		s.pingExpire(seq, w)
		s.mu.Leave()
	})
	defer cancel()
	for !w.done {
		if s.pings[seq] != w {
			return 0, false // timed out (or superseded)
		}
		s.sleep(w.event, "ping")
	}
	return w.rtt, true
}

// --- transmit-side BufIO export.

// mbufIO exports an mbuf chain as a COM BufIO.  Map succeeds only when
// the requested range lies in one contiguous run — for a chained packet
// it fails and the consumer must Read (copy), which is the documented
// §4.7.3 behaviour and the source of the send-path copy in Table 1.
//
// It lives inside the chain's first mbuf (Mbuf.io); the last Release
// frees the chain, and with it the export.
type mbufIO struct {
	com.RefCount
	m     *Mbuf    // the mbuf it is embedded in
	parts [][]byte // MapSG's fragment list, reused across exports
}

// wrapMbuf exports the chain headed by m, handing over the chain.
func (s *Stack) wrapMbuf(m *Mbuf) *mbufIO {
	b := &m.io
	b.Init()
	return b
}

// QueryInterface implements com.IUnknown.  The object also answers for
// the SGBufIO extension: an mbuf chain *is* a fragment list, so exporting
// it costs nothing, and only gather-capable consumers ever ask (§4.4.2).
func (b *mbufIO) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.BlkIOIID, com.BufIOIID, com.SGBufIOIID:
		b.AddRef()
		return b, nil
	}
	return nil, com.ErrNoInterface
}

// BlockSize implements com.BlkIO.
func (b *mbufIO) BlockSize() uint { return 1 }

// Read implements com.BlkIO: gather from the chain.
func (b *mbufIO) Read(buf []byte, offset uint64) (uint, error) {
	if offset >= uint64(b.m.PktLen) {
		return 0, nil
	}
	want := len(buf)
	if max := b.m.PktLen - int(offset); want > max {
		want = max
	}
	return uint(b.m.CopyData(int(offset), want, buf)), nil
}

// Write implements com.BlkIO (scatter into the chain).
func (b *mbufIO) Write(buf []byte, offset uint64) (uint, error) {
	if offset+uint64(len(buf)) > uint64(b.m.PktLen) {
		return 0, com.ErrInval
	}
	off := int(offset)
	written := 0
	for cur := b.m; cur != nil && written < len(buf); cur = cur.Next {
		if off >= cur.len {
			off -= cur.len
			continue
		}
		c := copy(cur.Data()[off:], buf[written:])
		written += c
		off = 0
	}
	return uint(written), nil
}

// Size implements com.BlkIO.
func (b *mbufIO) Size() (uint64, error) { return uint64(b.m.PktLen), nil }

// SetSize implements com.BlkIO.
func (b *mbufIO) SetSize(size uint64) error {
	if size > uint64(b.m.PktLen) {
		return com.ErrNotImplemented
	}
	b.m.Adj(-(b.m.PktLen - int(size)))
	return nil
}

// Map implements com.BufIO: succeeds only for single-run ranges.
func (b *mbufIO) Map(offset, amount uint) ([]byte, error) {
	off := int(offset)
	for cur := b.m; cur != nil; cur = cur.Next {
		if off >= cur.len {
			off -= cur.len
			continue
		}
		if off+int(amount) <= cur.len {
			return cur.Data()[off : off+int(amount)], nil
		}
		// The range continues into the next link: not one extent of
		// local memory, so the contract says decline.
		return nil, com.ErrNotImplemented
	}
	return nil, com.ErrInval
}

// Unmap implements com.BufIO.
func (b *mbufIO) Unmap(buf []byte) error { return nil }

// MapSG implements com.SGBufIO: the requested range as the chain's
// storage runs, in order, zero-copy.  This is what Map cannot promise for
// a chained packet — and the reason the base-interface consumer must
// copy.
func (b *mbufIO) MapSG(offset, amount uint) ([][]byte, error) {
	if uint64(offset)+uint64(amount) > uint64(b.m.PktLen) {
		return nil, com.ErrInval
	}
	parts := b.parts[:0]
	off := int(offset)
	remain := int(amount)
	for cur := b.m; cur != nil && remain > 0; cur = cur.Next {
		if off >= cur.len {
			off -= cur.len
			continue
		}
		take := cur.len - off
		if take > remain {
			take = remain
		}
		parts = append(parts, cur.Data()[off:off+take])
		remain -= take
		off = 0
	}
	b.parts = parts
	if remain > 0 {
		return nil, com.ErrInval
	}
	return parts, nil
}

// UnmapSG implements com.SGBufIO: the fragment list is the export's own
// and is reused by its next MapSG.
func (b *mbufIO) UnmapSG(parts [][]byte) error {
	clear(b.parts)
	return nil
}

// Wire implements com.BufIO; chains have no single address.
func (b *mbufIO) Wire() (uint32, error) {
	run := b.m.firstRun()
	if run == nil || !b.m.Contiguous() || run.storeAddr == 0 {
		return 0, com.ErrNotImplemented
	}
	return run.storeAddr + uint32(run.off), nil
}

// Unwire implements com.BufIO.
func (b *mbufIO) Unwire() error { return nil }

var _ com.SGBufIO = (*mbufIO)(nil)
var _ com.NetIOBatch = (*stackRecv)(nil)

// --- bench/test hooks (open implementation, §4.6).

// WrapMbufForTest exports a chain as the transmit path does; a hook for
// the repository's bench harness.
func WrapMbufForTest(s *Stack, m *Mbuf) com.BufIO { return s.wrapMbuf(m) }

// AddConnForBench attaches one established-looking TCP pcb with the
// given 4-tuple — the population step of the E13 demux comparison.
func AddConnForBench(s *Stack, laddr IPAddr, lport uint16, faddr IPAddr, fport uint16) {
	defer s.g.Enter("bench")()
	s.mu.Enter()
	defer s.mu.Leave()
	tp := s.tcpNew()
	tp.laddr, tp.lport = laddr, lport
	tp.faddr, tp.fport = faddr, fport
	tp.state = tcpsEstablished
	s.tcpPorts[lport]++
	_ = s.tcpRegisterConn(tp)
}

// BenchKey is one demux probe for the batched lookup hooks.
type BenchKey struct {
	Dst   IPAddr
	Dport uint16
	Src   IPAddr
	Sport uint16
}

// LookupBatchForBench runs every probe under ONE component entry — the
// per-entry overhead amortized away, the way the input path's batches
// amortize it — and returns the hit count.  linear selects the donor's
// walk instead of the hash.
func LookupBatchForBench(s *Stack, keys []BenchKey, linear bool) int {
	defer s.g.Enter("bench")()
	s.mu.Enter()
	defer s.mu.Leave()
	hits := 0
	for _, k := range keys {
		var tp *tcpcb
		if linear {
			tp = s.tcpLookupLinear(k.Dst, k.Dport, k.Src, k.Sport)
		} else {
			tp = s.tcpLookup(k.Dst, k.Dport, k.Src, k.Sport)
		}
		if tp != nil {
			hits++
		}
	}
	return hits
}
