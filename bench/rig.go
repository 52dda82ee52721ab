package main

// rig.go is the only file of the benchmark that imports product
// packages.  Everything else is written against the small types
// below, so this header is the exact product surface the benchmark
// compiles against; a refactor keeps it source-compatible or goes
// through a benchmark issue.
//
// Rigs and the application surface (the workloads):
//
//	evalrig.NewPairOpts, evalrig.NewCluster, evalrig.OSKit, evalrig.FreeBSD
//	evalrig.Options{FastPath, DiskSectors}
//	evalrig.Pair{Sender, Receiver}.Halt, evalrig.Cluster{Nodes, Switch}.Halt
//	evalrig.Node{C, IP, Machine, Kernel.Env, BSD, QP, Disk, FS, FSRoot}
//	evalrig.Node.{Do, Stats, MountFS, NIC}, evalrig.Addr
//	libc.C.{Socket, Bind, Listen, Accept, Connect, Read, Write, Close,
//	        Shutdown, SetSockOpt, Mkdir, Open, WriteFile, FdObject}
//	netbsdfs.FFS.Sync (through Node.FS)
//	httpd.Server{C, Root, Do}.Serve, httpd.NewSecureRoot, SecureRoot.Release
//
// Counters (deltas around the timed phase):
//
//	com.Stats.{StatsName, Snapshot, Release} as discovered by Node.Stats
//	hw.IntrController.Count, hw.IRQTimer, hw.NIC.{IRQ, Stats},
//	hw.Disk.IRQ, hw.EtherSwitch.Stats().Drops
//
// Probe entry points (one exported function in a loop):
//
//	hw.NewMachine, hw.Config, hw.Machine.{Intr, AttachNIC, AttachDisk, Halt}
//	hw.IntrController.{Disable, Enable, Raise, SetHandler, SetMask}, hw.GoID
//	hw.NewEtherWire, hw.Model3C59X, hw.NIC.{Transmit, RxPop}
//	hw.NewDisk, hw.DiskReq, hw.Disk.{Submit, Reap}
//	lmm.NewArena, lmm.Arena.{AddRegion, AddFree}
//	core.NewEnv, core.Env.{MemAlloc, MemFree, IntrDisable, IntrEnable}
//	core.NewSleepRec, core.SleepRec.{Sleep, Wakeup}
//	bsdglue.New, bsdglue.Glue.{Enter, Splnet, Splx, Tsleep, Wakeup,
//	        SleepersOn, Malloc.Alloc, Malloc.Free}
//	bsdnet.NewStack, bsdnet.Stack.{MGet, Glue, Close}, bsdnet.Mbuf.Free
//	bsdnet.Checksum, bsdnet.IPAddr, bsdnet.BenchKey
//	bsdnet.AddConnForBench, bsdnet.LookupBatchForBench
//	linuxdev.GlueFor, linuxdev.Glue.Kernel, legacy.Kernel.{Kmalloc, Kfree},
//	        legacy.GFPKernel
//	libc.QuickPool.{Alloc, Free}
//	com.IUnknown.{QueryInterface, Release}, com.SocketIID
//	httpd.ParseRequest

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"oskit/internal/com"
	"oskit/internal/core"
	"oskit/internal/evalrig"
	bsdglue "oskit/internal/freebsd/glue"
	bsdnet "oskit/internal/freebsd/net"
	"oskit/internal/httpd"
	"oskit/internal/hw"
	"oskit/internal/libc"
	linuxdev "oskit/internal/linux/dev"
	"oskit/internal/linux/legacy"
	"oskit/internal/lmm"
)

// rig is one booted testbed: a two-machine pair on a wire or an N-node
// cluster on a switch.  nodes[0] is the receiver/server by convention.
type rig struct {
	nodes  []*node
	sw     *hw.EtherSwitch // nil on a pair
	haltFn func()
}

// node is one booted machine, driven only through its libc.
type node struct {
	n *evalrig.Node
}

// bootPair boots a same-configuration pair: the paper's system, or the
// all-FreeBSD baseline for the reference lap.  nodes[0] is the receiver.
func bootPair(freebsd bool, tick time.Duration) (*rig, error) {
	cfg := evalrig.OSKit
	if freebsd {
		cfg = evalrig.FreeBSD
	}
	sp := tr.begin("evalrig.boot", 0, -1)
	p, err := evalrig.NewPairOpts(cfg, tick, evalrig.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &rig{nodes: []*node{{p.Receiver}, {p.Sender}}, haltFn: p.Halt}, nil
}

// bootCluster boots an OSKit cluster on the switch; fileServer selects
// the fast-path configuration with a disk on the server node.
func bootCluster(n int, tick time.Duration, fileServer bool) (*rig, error) {
	opts := evalrig.Options{}
	if fileServer {
		opts = evalrig.Options{FastPath: true, DiskSectors: 65536}
	}
	sp := tr.begin("evalrig.boot", 0, -1)
	c, err := evalrig.NewCluster(evalrig.OSKit, n, tick, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r := &rig{sw: c.Switch, haltFn: c.Halt}
	for _, nd := range c.Nodes {
		r.nodes = append(r.nodes, &node{nd})
	}
	return r, nil
}

func (r *rig) halt() {
	sp := tr.begin("evalrig.halt", 0, -1)
	r.haltFn()
	tr.end(sp)
}

// --- the socket surface, one span per call when tracing is on.

// sock is a descriptor on a node plus the operation its spans belong to.
type sock struct {
	n      *node
	fd     int
	op     int64
	parent int32
}

func (n *node) ip() [4]byte { return n.n.IP }

func (n *node) socket(op int64, parent int32) (sock, error) {
	var fd int
	var err error
	n.n.Do(func() { fd, err = n.n.C.Socket(2, 1, 0) })
	return sock{n, fd, op, parent}, err
}

func (s sock) setopt(name string, v int) error {
	var err error
	s.n.n.Do(func() { err = s.n.n.C.SetSockOpt(s.fd, name, v) })
	return err
}

func (s sock) bindListen(port uint16, backlog int) error {
	var err error
	s.n.n.Do(func() {
		if err = s.n.n.C.Bind(s.fd, evalrig.Addr(s.n.n.IP, port)); err == nil {
			err = s.n.n.C.Listen(s.fd, backlog)
		}
	})
	return err
}

func (s sock) connect(ip [4]byte, port uint16) error {
	var err error
	sp := tr.begin("libc.sock.connect", s.op, s.parent)
	s.n.n.Do(func() { err = s.n.n.C.Connect(s.fd, evalrig.Addr(ip, port)) })
	tr.end(sp)
	return err
}

func (s sock) accept() (sock, error) {
	var fd int
	var err error
	sp := tr.begin("libc.sock.accept", s.op, s.parent)
	s.n.n.Do(func() { fd, _, err = s.n.n.C.Accept(s.fd) })
	tr.end(sp)
	return sock{s.n, fd, s.op, s.parent}, err
}

func (s sock) read(b []byte) (int, error) {
	var k int
	var err error
	sp := tr.begin("libc.sock.read", s.op, s.parent)
	s.n.n.Do(func() { k, err = s.n.n.C.Read(s.fd, b) })
	tr.end(sp)
	return k, err
}

func (s sock) write(b []byte) (int, error) {
	var k int
	var err error
	sp := tr.begin("libc.sock.write", s.op, s.parent)
	s.n.n.Do(func() { k, err = s.n.n.C.Write(s.fd, b) })
	tr.end(sp)
	return k, err
}

func (s sock) shutdownWrite() error {
	var err error
	s.n.n.Do(func() { err = s.n.n.C.Shutdown(s.fd, 1) })
	return err
}

func (s sock) close() error {
	var err error
	sp := tr.begin("libc.sock.close", s.op, s.parent)
	s.n.n.Do(func() { err = s.n.n.C.Close(s.fd) })
	tr.end(sp)
	return err
}

// --- the file surface (http_file set-up and the file-system probes).

func (n *node) mountFS() error {
	sp := tr.begin("evalrig.mountfs", 0, -1)
	err := n.n.MountFS()
	tr.end(sp)
	return err
}

func (n *node) mkdir(path string) error {
	var err error
	n.n.Do(func() { err = n.n.C.Mkdir(path, 0o755) })
	return err
}

func (n *node) writeFile(path string, data []byte) error {
	var err error
	n.n.Do(func() { err = n.n.C.WriteFile(path, data, 0o644) })
	return err
}

// readFile reads path through open/read/close into buf and returns the
// byte count.
func (n *node) readFile(path string, buf []byte) (int, error) {
	var total int
	var err error
	n.n.Do(func() {
		var fd int
		if fd, err = n.n.C.Open(path, libc.ORdOnly, 0); err != nil {
			return
		}
		for total < len(buf) {
			var k int
			if k, err = n.n.C.Read(fd, buf[total:]); err != nil || k == 0 {
				break
			}
			total += k
		}
		if cerr := n.n.C.Close(fd); err == nil {
			err = cerr
		}
	})
	return total, err
}

func (n *node) syncFS() error {
	var err error
	n.n.Do(func() { err = n.n.FS.Sync() })
	return err
}

// httpServer builds the HTTP server on the node exactly as
// evalrig.HTTPGet does: the security wrapper in front of the FS root,
// an unprivileged uid, the node's serialization hook.
func (n *node) httpServer() (serve func(conn sock), release func()) {
	root := httpd.NewSecureRoot(n.n.FSRoot, 1000)
	hs := &httpd.Server{C: n.n.C, Root: root, Do: n.n.Do}
	return func(conn sock) { hs.Serve(conn.fd) }, func() { n.n.Do(root.Release) }
}

// --- counters.

// counters is one snapshot of everything the kit exports, summed over
// the rig's nodes ("set:name"; high-water marks take the maximum).
type counters map[string]int64

func (r *rig) counters() counters {
	c := counters{}
	for _, nd := range r.nodes {
		n := nd.n
		var sets []com.Stats
		n.Do(func() { sets = n.Stats() })
		for _, s := range sets {
			set := s.StatsName()
			for _, st := range s.Snapshot() {
				key := set + ":" + st.Name
				if strings.HasSuffix(st.Name, ".hiwat") {
					c[key] = max(c[key], st.Value)
				} else {
					c[key] += st.Value
				}
			}
			s.Release()
		}
		ic := n.Machine.Intr
		c["hw:intr.timer"] += int64(ic.Count(hw.IRQTimer))
		c["hw:intr.nic"] += int64(ic.Count(n.NIC().IRQ()))
		if n.Disk != nil {
			c["hw:intr.disk"] += int64(ic.Count(n.Disk.IRQ()))
		}
		rx, _, drops := n.NIC().Stats()
		c["hw:nic.rx"] += int64(rx)
		c["hw:nic.rx_drops"] += int64(drops)
	}
	if r.sw != nil {
		c["hw:switch.drops"] = int64(r.sw.Stats().Drops)
	}
	return c
}

// --- probes: a loop over one exported function, fast decile over batches.

// probeEnv is a bare machine with the kit's environment on it and no
// clock running — the smallest thing the component-level probes need.
type probeEnv struct {
	m   *hw.Machine
	env *core.Env
}

func newProbeEnv() (*probeEnv, error) {
	m := hw.NewMachine(hw.Config{Name: "probe", MemBytes: 32 << 20})
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x100000, 24<<20, 0, 0); err != nil {
		m.Halt()
		return nil, err
	}
	arena.AddFree(0x100000, 24<<20)
	return &probeEnv{m: m, env: core.NewEnv(m, arena)}, nil
}

var errProbe = errors.New("probe: the probed call failed")

// probeSink keeps the compiler from discarding a probed pure call.
var probeSink uint64

//go:noinline
func atDepth(depth int, fn func()) {
	if depth == 0 {
		fn()
		return
	}
	atDepth(depth-1, fn)
}

// runProbes measures every probe metric.  The component probes run on
// a bare machine; the allocator, COM and file-system probes run on the
// server node of a freshly booted fast-path cluster, so they see a real
// node's heap and a mounted FFS.
func runProbes(dur time.Duration, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	pe, err := newProbeEnv()
	if err != nil {
		return nil, err
	}
	defer pe.m.Halt()
	ic := pe.m.Intr

	// hw: interrupt exclusion, goroutine identity, dispatch, NIC, disk.
	cli := func() {
		for i := 0; i < 500; i++ {
			ic.Disable()
			ic.Enable()
		}
	}
	out["hw.intr.cli_pair_ns"] = timeProbe(dur, 500, timed(cli))
	out["hw.intr.cli_pair_deep_ns"] = timeProbe(dur, 500, timed(func() { atDepth(32, cli) }))
	out["hw.goid_ns"] = timeProbe(dur, 500, timed(func() {
		for i := 0; i < 500; i++ {
			probeSink += hw.GoID()
		}
	}))

	const probeLine = 5 // no device of the bare machine uses it
	rec := core.NewSleepRec()
	var handlerAt atomic.Int64
	epoch := time.Now()
	ic.SetHandler(probeLine, func(int) {
		handlerAt.Store(time.Since(epoch).Nanoseconds())
		rec.Wakeup()
	})
	ic.SetMask(probeLine, false)
	out["hw.intr.raise_to_handler_us"] = timeProbe(dur, 100, func() time.Duration {
		var sum int64
		for i := 0; i < 100; i++ {
			t0 := time.Since(epoch).Nanoseconds()
			ic.Raise(probeLine)
			rec.Sleep()
			sum += handlerAt.Load() - t0
		}
		return time.Duration(sum)
	}) / 1e3
	ic.SetMask(probeLine, true)

	wire := hw.NewEtherWire()
	peer := hw.NewMachine(hw.Config{Name: "probe-peer", MemBytes: 1 << 20})
	defer peer.Halt()
	macA, macB := [6]byte{2, 0, 0, 9, 0, 1}, [6]byte{2, 0, 0, 9, 0, 2}
	nicA := pe.m.AttachNIC(wire, macA, hw.Model3C59X)
	nicB := peer.AttachNIC(wire, macB, hw.Model3C59X)
	frame := make([]byte, 1514)
	copy(frame[0:6], macB[:])
	copy(frame[6:12], macA[:])
	frame[12], frame[13] = 0x08, 0x00
	out["hw.nic.tx_frame_us"] = timeProbe(dur, 200, timed(func() {
		for i := 0; i < 200; i++ {
			nicA.Transmit(frame)
			if nicB.RxPop() == nil {
				probeSink++
			}
		}
	})) / 1e3

	disk := pe.m.AttachDisk(hw.NewDisk(4096))
	ic.SetHandler(disk.IRQ(), func(int) { rec.Wakeup() })
	ic.SetMask(disk.IRQ(), false)
	dbuf := make([]byte, 2*hw.SectorSize)
	diskFailed := false
	out["hw.disk.read_us"] = timeProbe(dur, 50, timed(func() {
		for i := 0; i < 50; i++ {
			req := &hw.DiskReq{Sector: uint32(i*2) % 4000, Count: 2, Buf: dbuf}
			disk.Submit(req)
			for !req.Done {
				rec.Sleep()
			}
			for disk.Reap() != nil {
			}
			if req.Err != nil {
				diskFailed = true
			}
		}
	})) / 1e3
	ic.SetMask(disk.IRQ(), true)
	if diskFailed {
		return nil, fmt.Errorf("hw.disk.read_us: %w", errProbe)
	}

	// core and freebsd_glue: the two blocking hand-offs.
	var stop atomic.Bool
	ping, pong := core.NewSleepRec(), core.NewSleepRec()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ping.Sleep()
			if stop.Load() {
				return
			}
			pong.Wakeup()
		}
	}()
	out["core.sleeprec_handoff_us"] = timeProbe(dur, 200, timed(func() {
		for i := 0; i < 200; i++ {
			ping.Wakeup()
			pong.Sleep()
		}
	})) / 2 / 1e3 // a round is two hand-offs
	stop.Store(true)
	ping.Wakeup()
	<-done

	g := bsdglue.New(pe.env)
	const ev = 0xbe9c0000
	stop.Store(false)
	ack := make(chan struct{})
	done = make(chan struct{})
	go func() {
		defer close(done)
		leave := g.Enter("bench-sleeper")
		defer leave()
		s := g.Splnet()
		defer g.Splx(s)
		for {
			g.Tsleep(ev, "bench")
			if stop.Load() {
				return
			}
			ack <- struct{}{}
		}
	}()
	wake := func() {
		for {
			s := g.Splnet()
			if g.SleepersOn(ev) > 0 {
				g.Wakeup(ev)
				g.Splx(s)
				return
			}
			g.Splx(s)
			runtime.Gosched()
		}
	}
	out["freebsd_glue.sleep_wakeup_us"] = timeProbe(dur, 100, timed(func() {
		for i := 0; i < 100; i++ {
			wake()
			<-ack
		}
	})) / 1e3
	stop.Store(true)
	wake()
	<-done

	// freebsd_net: checksum, demux among 1 000 pcbs.
	kb := make([]byte, 1024)
	for i := range kb {
		kb[i] = byte(uint64(seed)>>(uint(i)%8*8)) ^ byte(i)
	}
	out["freebsd_net.checksum_ns_per_kb"] = timeProbe(dur, 1000, timed(func() {
		for i := 0; i < 1000; i++ {
			probeSink += uint64(bsdnet.Checksum(kb, uint32(i)))
		}
	}))
	st := bsdnet.NewStack(g)
	defer st.Close()
	const pcbs = 1000
	laddr := bsdnet.IPAddr{10, 0, 0, 1}
	keys := make([]bsdnet.BenchKey, pcbs)
	for i := range keys {
		faddr := bsdnet.IPAddr{10, 4, byte(i >> 8), byte(i)}
		bsdnet.AddConnForBench(st, laddr, 80, faddr, uint16(1024+i))
		keys[i] = bsdnet.BenchKey{Dst: laddr, Dport: 80, Src: faddr, Sport: uint16(1024 + i)}
	}
	missed := false
	out["freebsd_net.demux_lookup_ns"] = timeProbe(dur, pcbs, timed(func() {
		if bsdnet.LookupBatchForBench(st, keys, false) != pcbs {
			missed = true
		}
	}))
	if missed {
		return nil, fmt.Errorf("freebsd_net.demux_lookup_ns: %w", errProbe)
	}

	// httpd: the request parser on the head the http_file generators send.
	head := []byte(httpRequest("/pub/f0"))
	parseFailed := false
	out["httpd.parse_request_ns"] = timeProbe(dur, 200, timed(func() {
		for i := 0; i < 200; i++ {
			if _, err := httpd.ParseRequest(head); err != nil {
				parseFailed = true
			}
		}
	}))
	if parseFailed {
		return nil, fmt.Errorf("httpd.parse_request_ns: %w", errProbe)
	}

	if err := nodeProbes(dur, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// nodeProbes measures the allocator fronts, a COM QueryInterface and
// the file system on a freshly booted fast-path server node.
func nodeProbes(dur time.Duration, seed int64, out map[string]float64) error {
	tr.enable(false)
	r, err := bootCluster(2, time.Millisecond, true)
	if err != nil {
		return err
	}
	defer r.halt()
	nd := r.nodes[0]
	n := nd.n
	env := n.Kernel.Env
	failed := false

	// One batch runs under the node's component lock, like any other
	// process-level entry.
	locked := func(fn func()) func() time.Duration {
		return timed(func() { n.Do(fn) })
	}
	kern := linuxdev.GlueFor(env).Kernel()
	out["linux_dev.kmalloc_pair_ns"] = timeProbe(dur, 200, locked(func() {
		for i := 0; i < 200; i++ {
			b := kern.Kmalloc(128, legacy.GFPKernel)
			if b == nil {
				failed = true
				return
			}
			kern.Kfree(b)
		}
	}))
	out["freebsd_glue.malloc_pair_ns"] = timeProbe(dur, 200, locked(func() {
		m := n.BSD.Glue().Malloc
		for i := 0; i < 200; i++ {
			addr, _, ok := m.Alloc(128)
			if !ok {
				failed = true
				return
			}
			m.Free(addr)
		}
	}))
	out["freebsd_net.mbuf_pair_ns"] = timeProbe(dur, 200, locked(func() {
		for i := 0; i < 200; i++ {
			m := n.BSD.MGet()
			if m == nil {
				failed = true
				return
			}
			m.Free()
		}
	}))
	out["lmm.alloc_pair_ns"] = timeProbe(dur, 200, locked(func() {
		// The arena has no lock of its own: its callers hold cli.
		env.IntrDisable()
		defer env.IntrEnable()
		for i := 0; i < 200; i++ {
			addr, _, ok := env.MemAlloc(128, 0, 0)
			if !ok {
				failed = true
				return
			}
			env.MemFree(addr, 128)
		}
	}))
	out["libc.qp_pair_ns"] = timeProbe(dur, 200, locked(func() {
		for i := 0; i < 200; i++ {
			addr, _, ok := n.QP.Alloc(128)
			if !ok {
				failed = true
				return
			}
			n.QP.Free(addr, 128)
		}
	}))

	s, err := nd.socket(0, -1)
	if err != nil {
		return err
	}
	var obj com.IUnknown
	n.Do(func() { obj, err = n.C.FdObject(s.fd) })
	if err != nil {
		return err
	}
	out["com.query_interface_ns"] = timeProbe(dur, 500, locked(func() {
		for i := 0; i < 500; i++ {
			u, err := obj.QueryInterface(com.SocketIID)
			if err != nil {
				failed = true
				return
			}
			u.Release()
		}
	}))
	n.Do(func() { obj.Release() })
	if err := s.close(); err != nil {
		return err
	}

	// netbsd_fs through the node's libc: a 16 KiB file stays in the
	// 64 KiB buffer cache, a 512 KiB one never does.
	if err := nd.mountFS(); err != nil {
		return err
	}
	if err := nd.mkdir("/probe"); err != nil {
		return err
	}
	small, big := seededBytes(seed, 0x5ea1, 16<<10), seededBytes(seed, 0xb16, 512<<10)
	if err := nd.writeFile("/probe/small", small); err != nil {
		return err
	}
	if err := nd.writeFile("/probe/big", big); err != nil {
		return err
	}
	if err := nd.syncFS(); err != nil {
		return err
	}
	buf := make([]byte, len(big))
	readProbe := func(path string, want []byte) float64 {
		return timeProbe(dur, len(want)>>10, timed(func() {
			k, err := nd.readFile(path, buf)
			if err != nil || k != len(want) || buf[k-1] != want[k-1] {
				failed = true
			}
		})) / 1e3
	}
	out["netbsd_fs.read_hit_us_per_kb"] = readProbe("/probe/small", small)
	out["netbsd_fs.read_miss_us_per_kb"] = readProbe("/probe/big", big)
	out["netbsd_fs.write_us_per_kb"] = timeProbe(dur, 64, timed(func() {
		if nd.writeFile("/probe/w", big[:64<<10]) != nil {
			failed = true
		}
	})) / 1e3
	if failed {
		return errProbe
	}
	return nil
}
