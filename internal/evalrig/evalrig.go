// Package evalrig assembles the three system configurations of the
// paper's evaluation (§5, Tables 1 and 2) as pairs of simulated
// machines on one Ethernet segment, a two-port learning switch (the
// N-node Cluster puts N machines on the same kind of switch):
//
//   - Linux: the monolithic baseline — Linux-style stack bound natively
//     to the donor driver, skbuffs end to end.
//   - FreeBSD: the all-BSD baseline — FreeBSD-derived stack with the
//     donor mbuf driver, mbufs end to end.
//   - OSKit: the paper's system — FreeBSD-derived stack over the
//     encapsulated Linux driver, bound through COM NetIO/BufIO, with
//     the §5 initialization sequence.
//
// The same application code (ttcp, rtcp, the examples) drives all three
// through the minimal C library's socket layer; only the configuration
// differs, which is the point of the comparison.
package evalrig

import (
	"fmt"
	"io"
	"time"

	"oskit/internal/com"
	"oskit/internal/dev"
	"oskit/internal/faults"
	bsdglue "oskit/internal/freebsd/glue"
	bsdnet "oskit/internal/freebsd/net"
	"oskit/internal/hw"
	"oskit/internal/kern"
	"oskit/internal/libc"
	linuxdev "oskit/internal/linux/dev"
	linuxnet "oskit/internal/linux/net"
	netbsdfs "oskit/internal/netbsd/fs"
	"oskit/internal/stats"
)

// Config names one evaluation configuration.
type Config string

// The three rows of Tables 1 and 2.
const (
	Linux   Config = "linux"
	FreeBSD Config = "freebsd"
	OSKit   Config = "oskit"
)

// Configs lists them in table order.
var Configs = []Config{Linux, FreeBSD, OSKit}

// Node is one booted machine with a socket layer.
type Node struct {
	Machine *hw.Machine
	Kernel  *kern.Kernel
	C       *libc.C
	IP      [4]byte

	BSD *bsdnet.Stack   // nil for the Linux configuration
	LX  *linuxnet.Stack // nil otherwise

	// QP is the node's QuickPool allocator service, non-nil only when
	// the node was booted with Options.FastPath (OSKit configuration).
	QP *libc.QuickPool

	// Disk is the node's IDE disk, non-nil only when booted with
	// Options.DiskSectors; FS and FSRoot are set by MountFS.
	Disk   *hw.Disk
	FS     *netbsdfs.FFS
	FSRoot com.Dir

	nic *hw.NIC

	// httpPopKey remembers the (seed, files, bytes) shape PopulateHTTP
	// last laid down, making repopulation a no-op across workload runs.
	httpPopKey string
}

// Do runs fn.  A node has no lock of its own: each encapsulated
// component takes its one exclusion in its glue, so any number of
// process-level threads may call into a node at once.  Do remains only
// because bench/rig.go calls it (ROADMAP item 13).
func (n *Node) Do(fn func()) { fn() }

// Options selects optional rig configuration beyond the Config row.
type Options struct {
	// FastPath assembles OSKit nodes fast-path: a QuickPool is
	// registered as the allocator service (com.AllocatorIID) before the
	// driver glue and the stack are built, and each binds it there.
	// That one fact yields the E11 send side (scatter-gather transmit
	// through the encapsulated driver, no mbuf-chain flatten copy,
	// per-packet allocations from the pool), the E12 receive side (NIC
	// interrupt mitigation, a budgeted poll loop replacing the donor
	// ISR, batched delivery into the stack through com.NetIOBatch) and
	// E15's zero-copy SendFile.  Ignored by the Linux and FreeBSD
	// configurations, which have no representation boundary to
	// shortcut.
	FastPath bool

	// CPUs powers each machine on with N logical CPUs (interrupt
	// dispatch contexts).  The exclusion discipline is not an option: each
	// glue reads N where it is built.  For N > 1 the BSD-stack
	// configurations run the SMP discipline end to end — the FreeBSD
	// glue's spl and the Linux driver glue's cli are vestigial and the
	// network stack's own lock is the exclusion (E14); the file system
	// keeps giant exclusion (splbio).  A FreeBSD-native
	// node attaches its NIC with N receive rings (AttachNative); an
	// OSKit node with FastPath grows N RSS-hashed rings drained by N
	// polled receive loops, without it the donor ISR keeps its one line.
	// 0 or 1 means the unchanged uniprocessor rig — every default path is
	// byte-identical to CPUs-absent (TestPathShapeMatrix pins this).  The
	// Linux configuration keeps real cli, its stack's one exclusion, but
	// still boots with N CPUs.
	CPUs int

	// DiskSectors, when nonzero, attaches an IDE disk of that many
	// 512-byte sectors to the machine before boot — the HTTP
	// file-serving workload (E15) mounts an FFS on it via
	// Node.MountFS.  In a Cluster only the server node (Nodes[0])
	// receives the disk; generators have no use for one.
	DiskSectors uint32
}

// Pair is a two-machine testbed.  Sender and receiver may run different
// configurations: Table 1 is a sender-system × receiver-system matrix,
// which is how a system's send and receive paths are isolated (the
// fixed peer is not the bottleneck under measurement).
type Pair struct {
	SendCfg, RecvCfg Config
	Switch           *hw.EtherSwitch
	Sender, Receiver *Node

	// Faults is the pair's fault injector, nil until EnableFaults.
	Faults *faults.Injector
}

var (
	ipSender   = [4]byte{10, 1, 1, 1}
	ipReceiver = [4]byte{10, 1, 1, 2}
	netmask    = [4]byte{255, 255, 255, 0}
)

// NewPair boots a same-configuration sender/receiver pair with
// free-running clocks (tick = tickInterval of host time).
func NewPair(cfg Config, tickInterval time.Duration) (*Pair, error) {
	return NewMixedPairOpts(cfg, cfg, tickInterval, Options{})
}

// NewPairOpts is NewPair with rig options.
func NewPairOpts(cfg Config, tickInterval time.Duration, opts Options) (*Pair, error) {
	return NewMixedPairOpts(cfg, cfg, tickInterval, opts)
}

// NewMixedPair boots a sender in one configuration and a receiver in
// another (the stacks speak wire-standard TCP, so every combination
// interoperates).
func NewMixedPair(sendCfg, recvCfg Config, tickInterval time.Duration) (*Pair, error) {
	return NewMixedPairOpts(sendCfg, recvCfg, tickInterval, Options{})
}

// NewMixedPairOpts is NewMixedPair with rig options, applied to both
// nodes.
func NewMixedPairOpts(sendCfg, recvCfg Config, tickInterval time.Duration, opts Options) (*Pair, error) {
	sw := hw.NewEtherSwitch()
	s, err := newNode(sendCfg, sw, 1, ipSender, tickInterval, opts)
	if err != nil {
		return nil, err
	}
	r, err := newNode(recvCfg, sw, 2, ipReceiver, tickInterval, opts)
	if err != nil {
		s.halt()
		return nil, err
	}
	return &Pair{SendCfg: sendCfg, RecvCfg: recvCfg, Switch: sw, Sender: s, Receiver: r}, nil
}

// Halt powers both machines off.
func (p *Pair) Halt() {
	haltRig(p.Faults, p.Sender, p.Receiver)
	p.Faults = nil
}

// haltRig is the teardown under Pair.Halt and Cluster.Halt: release the
// rig's fault injector, then halt every node.
func haltRig(in *faults.Injector, nodes ...*Node) {
	if in != nil {
		in.Release()
	}
	for _, n := range nodes {
		n.halt()
	}
}

// halt is the one per-node teardown: stop the stack's timers, unmount
// a mounted file system so the reference ledger balances, and power the
// machine off.
func (n *Node) halt() {
	if n.BSD != nil {
		n.BSD.Close()
	}
	n.UnmountFS()
	n.Machine.Halt()
}

func newNode(cfg Config, sw *hw.EtherSwitch, unit byte, ip [4]byte, tick time.Duration, opts Options) (*Node, error) {
	cpus := opts.CPUs
	if cpus < 1 {
		cpus = 1
	}
	m := hw.NewMachine(hw.Config{Name: fmt.Sprintf("%s-%d", cfg, unit), MemBytes: 64 << 20, CPUs: cpus})
	nic := m.AttachNIC(sw, [6]byte{2, 0, 0, 2, 0, unit}, hw.Model3C59X)
	var disk *hw.Disk
	if opts.DiskSectors > 0 {
		disk = hw.NewDisk(opts.DiskSectors)
		m.AttachDisk(disk)
	}
	k, err := kern.Setup(m, nil)
	if err != nil {
		m.Halt()
		return nil, err
	}
	n := &Node{Machine: m, Kernel: k, IP: ip, nic: nic, Disk: disk}
	n.C = libc.New(k.Env)

	switch cfg {
	case Linux:
		lk, devs := linuxdev.ProbeNative(k.Env)
		if len(devs) != 1 {
			m.Halt()
			return nil, fmt.Errorf("evalrig: native probe found %d devices", len(devs))
		}
		st, err := linuxnet.NewStack(lk, devs[0], ip, netmask)
		if err != nil {
			m.Halt()
			return nil, err
		}
		n.LX = st
		// The monolithic stack has no environment handle (it sees only
		// the legacy kernel), so the configuration registers its stats.
		k.Env.Registry.Register(com.StatsIID, st.StatsSet())
		f := st.SocketFactory()
		n.C.SetSocketCreator(f)
		f.Release()

	case FreeBSD:
		st := bsdnet.NewStack(bsdglue.NewLocked(k.Env))
		// One RSS-hashed receive ring per CPU, each ring's interrupt line
		// affinity-routed so drains run concurrently.
		st.AttachNative(nic, cpus)
		st.Ifconfig(bsdnet.IPAddr(ip), bsdnet.IPAddr(netmask))
		n.BSD = st
		f := st.SocketFactory()
		n.C.SetSocketCreator(f)
		f.Release()

	case OSKit:
		// The §5 initialization sequence, call for call:
		//   fdev_linux_init_ethernet(); fdev_probe();
		//   oskit_freebsd_net_init(&sf); posix_set_socketcreator(sf);
		//   fdev_device_lookup(&fdev_ethernet_iid, &dev);
		//   oskit_freebsd_net_open_ether_if(dev[0], &eif);
		//   oskit_freebsd_net_ifconfig(eif, IPADDR, NETMASK);
		if opts.FastPath {
			// The fast-path assembly: one QuickPool per node, registered
			// as the allocator service before any component is built, so
			// the glue's kmalloc draws skbuff data from it and the stack's
			// SendFile finds the page seam (§4.2.2: components find
			// services in the registry).
			n.QP = libc.NewQuickPoolService(n.C)
			// One RSS-hashed receive ring per CPU before the encapsulated
			// driver opens the controller; the polled receive path
			// engages one drain loop per ring (linuxdev/rxpoll.go).
			nic.ConfigureRxQueues(cpus)
		}
		fw := dev.NewFramework(k.Env)
		linuxdev.InitEthernet(fw)
		fw.Probe()
		st := bsdnet.NewStack(bsdglue.NewLocked(k.Env))
		f := st.SocketFactory()
		n.C.SetSocketCreator(f)
		f.Release()
		devs := fw.LookupByIID(com.EtherDevIID)
		if len(devs) != 1 {
			m.Halt()
			return nil, fmt.Errorf("evalrig: fdev lookup found %d devices", len(devs))
		}
		if err := st.OpenEtherIf(devs[0].(com.EtherDev)); err != nil {
			m.Halt()
			return nil, err
		}
		devs[0].Release()
		st.Ifconfig(bsdnet.IPAddr(ip), bsdnet.IPAddr(netmask))
		n.BSD = st

	default:
		m.Halt()
		return nil, fmt.Errorf("evalrig: unknown config %q", cfg)
	}

	if tick > 0 {
		m.Timer.Start(tick)
	}
	return n, nil
}

// NIC exposes the node's simulated Ethernet controller (tests and
// benches inspect its gather/drop counters).
func (n *Node) NIC() *hw.NIC { return n.nic }

// Addr builds a socket address on the rig's subnet.
func Addr(ip [4]byte, port uint16) com.SockAddr {
	return com.SockAddr{Family: com.AFInet, Addr: ip, Port: port}
}

// Stats discovers every com.Stats exporter registered on the node (the
// network stack, the BSD malloc, the kernel arena, …).  The returned
// objects each carry one COM reference; release them when done.
func (n *Node) Stats() []com.Stats {
	return stats.Discover(n.Kernel.Env.Registry)
}

// WriteStats renders the node's merged statistics table, omitting
// zero-valued rows (terse mode: a run touches a fraction of the
// registered statistics).
func (n *Node) WriteStats(w io.Writer) {
	sets := n.Stats()
	stats.WriteTable(w, sets, true)
	for _, s := range sets {
		s.Release()
	}
}

// Stat reads one named statistic from the node's exporter named set
// ("freebsd_net", "bsd_malloc", …); ok is false when either is missing.
func (n *Node) Stat(set, name string) (int64, bool) {
	sets := n.Stats()
	defer func() {
		for _, s := range sets {
			s.Release()
		}
	}()
	for _, s := range sets {
		if s.StatsName() == set {
			if v, ok := stats.Get(s.Snapshot(), name); ok {
				return v, true
			}
		}
	}
	return 0, false
}
