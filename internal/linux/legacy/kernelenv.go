// Package legacy is the kit's donor-style Linux code: device drivers and
// the kernel-internal machinery they expect (skbuffs, kmalloc, cli/sti,
// sleep_on/wake_up), written exactly as they would be inside Linux 2.0
// and **never importing any kit package**.  The glue in
// oskit/internal/linux/dev supplies this environment and exports the
// drivers through COM interfaces — the encapsulation technique of paper
// §4.7.
//
// One adaptation to Go: in C these services were globals resolved at link
// time, one kernel image per machine.  One Go process hosts several
// simulated machines, so the donor environment is reified as a Kernel
// value — the moral equivalent of the per-image link-time namespace that
// the original managed with symbol-renaming preprocessor magic (§4.7.2).
// Donor code treats its *Kernel exactly as it treated the ambient kernel.
package legacy

import "strconv"

// Errno is a Linux kernel error number (the negative int of the C
// original), the only error donor code returns; a component's glue
// translates it where it leaves through a COM interface.
type Errno int

// The error numbers donor code returns (Linux i386 values).
const (
	EIO      Errno = 5
	ENOMEM   Errno = 12
	ENETDOWN Errno = 100
)

// Error implements error.
func (e Errno) Error() string { return "linux: -" + strconv.Itoa(int(e)) }

// GFP allocation flags (Linux 2.0 names).
const (
	GFPKernel = 0x01 // may sleep
	GFPAtomic = 0x02 // interrupt level: must not sleep
	GFPDMA    = 0x80 // must be ISA-DMA addressable
)

// KBuf is one kmalloc'd block: its (simulated) physical address and the
// storage.  Drivers pass Addr to hardware and touch Data themselves.
type KBuf struct {
	Addr uint32
	Data []byte

	// Pooled marks a block drawn from the glue's fast allocator service
	// rather than kmalloc's usual backing; Kfree must return it there.
	// Donor code never touches it (glue-reserved, like SKBuff.COMSlot).
	Pooled bool
}

// WaitQueue is the donor sleep/wakeup rendezvous.  Its one field is
// opaque to donor code; the glue hangs its own sleep machinery there —
// the same trick as the one-word COM slot in the skbuff (§4.7.3).
type WaitQueue struct {
	Glue any
}

// Kernel is the donor-internal environment a driver is "linked against".
// Every field is supplied by the glue; donor code only calls them.
type Kernel struct {
	// Kmalloc allocates kernel memory honouring the GFP flags; nil on
	// exhaustion.  Kfree releases it.
	Kmalloc func(size uint32, gfp int) *KBuf
	Kfree   func(*KBuf)

	// SaveFlags/Cli/RestoreFlags are the interrupt-exclusion idiom
	// donor code uses around shared state.
	SaveFlags    func() uint32
	Cli          func()
	RestoreFlags func(uint32)

	// RequestIRQ installs (and enables) an interrupt handler; FreeIRQ
	// removes it.
	RequestIRQ func(irq int, handler func(irq int), name string) error
	FreeIRQ    func(irq int)

	// SleepOn blocks the current process on q; WakeUp releases it.
	// WakeUp is callable from interrupt handlers.
	SleepOn func(q *WaitQueue)
	WakeUp  func(q *WaitQueue)

	// AddTimer schedules fn after delay jiffies at interrupt level
	// (add_timer); the returned cancel is del_timer.
	AddTimer func(delay uint64, fn func()) (cancel func())

	// Printk is the donor console.
	Printk func(format string, args ...any)

	// PhysToVirt returns the memory at a physical address: the
	// "all physical memory is direct-mapped" assumption some Linux
	// drivers make (§4.7.8).  Drivers that use it cannot run in client
	// OSes without such a mapping; the glue on the simulated PC
	// provides it.
	PhysToVirt func(addr uint32, size uint32) []byte

	// NetifRx is the upcall a network driver makes with each received
	// skbuff; "higher-level networking code" — here the glue — installs
	// it.
	NetifRx func(*SKBuff)

	// netDevs and disks are the donor registration lists.
	netDevs []*NetDevice
	disks   []*IDEDisk

	skbs skbCache
}

// RegisterNetdev adds a probed network device to the donor's device list.
func (k *Kernel) RegisterNetdev(d *NetDevice) { k.netDevs = append(k.netDevs, d) }

// NetDevices returns the donor's registered network devices.
func (k *Kernel) NetDevices() []*NetDevice { return k.netDevs }

// RegisterDisk adds a probed disk.
func (k *Kernel) RegisterDisk(d *IDEDisk) { k.disks = append(k.disks, d) }

// Disks returns the donor's registered disks.
func (k *Kernel) Disks() []*IDEDisk { return k.disks }
