package legacy

// NetDevice is the donor's struct device for network interfaces, with the
// Linux 2.0 method slots the kit's drivers fill in.
type NetDevice struct {
	Kern *Kernel
	Name string
	MAC  [6]byte
	IRQ  int
	MTU  int

	// Chip is the device's register-level hardware interface (the
	// driver's inb/outb surface); see chip.go.
	Chip EtherChip

	// Features advertises driver capabilities to the encapsulating glue
	// (the NETIF_F_* idea, decades early): a driver sets FeatSG when its
	// hardware can transmit a scattered packet, which tells the glue it
	// may hand HardStartXmit gather skbuffs (FakeSKBGather).
	Features uint32

	// Method slots, Linux style.
	Open          func(*NetDevice) error
	Stop          func(*NetDevice) error
	HardStartXmit func(*SKBuff, *NetDevice) error

	Stats NetStats
	Priv  any

	opened bool
}

// FeatSG marks a device whose transmitter accepts scattered packets
// (gather DMA): its HardStartXmit handles gather skbuffs without a
// software flatten.
const FeatSG uint32 = 1 << 0

// NetStats is the donor's interface statistics block.
type NetStats struct {
	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
	RxDropped, TxErrors  uint64
}

// EtherChip is the register-level view of an Ethernet controller: what
// the driver would reach through inb/outb and shared-memory windows on a
// real ISA/PCI card.  The glue implements it over the simulated NIC.
type EtherChip interface {
	// IDs returns the (vendor, device) identification the probe routine
	// checks.
	IDs() (vendor, device uint16)
	// MacAddr reads the station address PROM.
	MacAddr() [6]byte
	// TxFrame hands one complete frame to the transmitter.
	TxFrame(frame []byte)
	// RxFrame pops the next received frame off the chip's receive ring,
	// or returns nil when the ring is empty.  The frame is valid only
	// until the next RxFrame; a driver copies it into an skbuff first.
	RxFrame() []byte
}

// GatherChip is the optional gather-DMA capability of an Ethernet
// controller: the transmitter fetches the frame from several memory runs
// in one pass (busmaster scatter-gather).  A driver whose chip implements
// it advertises FeatSG; PIO-era chips (sne2k) do not.
type GatherChip interface {
	// TxFrameGather hands one frame, scattered across parts in order,
	// to the transmitter.
	TxFrameGather(parts [][]byte)
}

// DiskChip is the register-level view of an IDE controller, likewise
// implemented by the glue over the simulated disk.
type DiskChip interface {
	// IDs returns the controller identification.
	IDs() (vendor, device uint16)
	// Sectors returns the drive capacity.
	Sectors() uint32
	// Start begins one asynchronous transfer; completion arrives as an
	// interrupt, after which Done yields the tag.
	Start(write bool, sector, count uint32, buf []byte, tag any)
	// Done reaps one completion: its tag and error; ok false when none
	// is pending.
	Done() (tag any, err error, ok bool)
}
