package legacy

import (
	"bytes"
	"testing"
)

// Donor-level driver tests: the drivers against fake chips, with a
// minimal in-package kernel environment — no kit, no glue, exactly the
// isolation property §4.7 requires of donor code.

// fakeEther is a scriptable EtherChip.
type fakeEther struct {
	vendor, device uint16
	mac            [6]byte
	rxq            [][]byte
	tx             [][]byte
}

func (c *fakeEther) IDs() (uint16, uint16) { return c.vendor, c.device }
func (c *fakeEther) MacAddr() [6]byte      { return c.mac }
func (c *fakeEther) TxFrame(f []byte)      { c.tx = append(c.tx, append([]byte(nil), f...)) }
func (c *fakeEther) RxFrame() []byte {
	if len(c.rxq) == 0 {
		return nil
	}
	f := c.rxq[0]
	c.rxq = c.rxq[1:]
	return f
}

// driverKernel is testKernel plus IRQ bookkeeping and a direct map.
func driverKernel() (*Kernel, map[int]func(int)) {
	k := testKernel()
	handlers := map[int]func(int){}
	k.RequestIRQ = func(irq int, h func(int), name string) error {
		handlers[irq] = h
		return nil
	}
	k.FreeIRQ = func(irq int) { delete(handlers, irq) }
	mem := make([]byte, 1<<20)
	k.Kmalloc = func(size uint32, gfp int) *KBuf {
		return &KBuf{Addr: 0x4000, Data: make([]byte, size)}
	}
	k.PhysToVirt = func(addr, size uint32) []byte { return mem[addr : addr+size] }
	k.SleepOn = func(q *WaitQueue) {}
	k.WakeUp = func(q *WaitQueue) {}
	return k, handlers
}

func TestSNE2KProbeRejectsWrongSilicon(t *testing.T) {
	k, _ := driverKernel()
	if dev := SNE2KProbe(k, &fakeEther{vendor: 0x1234, device: 0x5678}, 9, "eth0"); dev != nil {
		t.Fatal("sne2k claimed foreign hardware")
	}
	if dev := S3C59XProbe(k, &fakeEther{vendor: sne2kVendor, device: sne2kDevice}, 9, "eth0"); dev != nil {
		t.Fatal("s3c59x claimed ne2k hardware")
	}
	if len(k.NetDevices()) != 0 {
		t.Fatal("phantom registration")
	}
}

func TestSNE2KLifecycle(t *testing.T) {
	k, handlers := driverKernel()
	chip := &fakeEther{vendor: sne2kVendor, device: sne2kDevice, mac: [6]byte{2, 0, 0, 0, 0, 7}}
	dev := SNE2KProbe(k, chip, 9, "eth0")
	if dev == nil || dev.MAC != chip.mac || len(k.NetDevices()) != 1 {
		t.Fatal("probe failed")
	}
	// Transmit before open: error, frame not sent.
	skb := k.AllocSKB(64)
	copy(skb.Put(60), bytes.Repeat([]byte{1}, 60))
	if err := dev.HardStartXmit(skb, dev); err == nil {
		t.Fatal("xmit on closed device succeeded")
	}
	if dev.Stats.TxErrors != 1 {
		t.Fatalf("TxErrors = %d", dev.Stats.TxErrors)
	}

	if err := dev.Open(dev); err != nil {
		t.Fatal(err)
	}
	if handlers[9] == nil {
		t.Fatal("open did not request the IRQ")
	}
	// PIO receive: frames drain through netif_rx on the interrupt.
	var got [][]byte
	k.NetifRx = func(skb *SKBuff) {
		got = append(got, append([]byte(nil), skb.Data...))
		skb.Free()
	}
	chip.rxq = [][]byte{bytes.Repeat([]byte{0xA}, 60), bytes.Repeat([]byte{0xB}, 80)}
	handlers[9](9)
	if len(got) != 2 || len(got[1]) != 80 || got[1][0] != 0xB {
		t.Fatalf("received %d frames", len(got))
	}
	if dev.Stats.RxPackets != 2 || dev.Stats.RxBytes != 140 {
		t.Fatalf("stats = %+v", dev.Stats)
	}

	// Transmit: PIO staging then the chip.
	skb2 := k.AllocSKB(64)
	copy(skb2.Put(60), bytes.Repeat([]byte{7}, 60))
	if err := dev.HardStartXmit(skb2, dev); err != nil {
		t.Fatal(err)
	}
	if len(chip.tx) != 1 || !bytes.Equal(chip.tx[0], bytes.Repeat([]byte{7}, 60)) {
		t.Fatal("frame not transmitted")
	}

	if err := dev.Stop(dev); err != nil {
		t.Fatal(err)
	}
	if handlers[9] != nil {
		t.Fatal("stop did not free the IRQ")
	}
	if err := dev.Stop(dev); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestS3C59XBusmasterPaths(t *testing.T) {
	k, handlers := driverKernel()
	chip := &fakeEther{vendor: s3c59xVendor, device: s3c59xDevice}
	dev := S3C59XProbe(k, chip, 10, "eth1")
	if dev == nil {
		t.Fatal("probe failed")
	}
	if err := dev.Open(dev); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	k.NetifRx = func(skb *SKBuff) {
		got = append(got, append([]byte(nil), skb.Data...))
		skb.Free()
	}
	chip.rxq = [][]byte{bytes.Repeat([]byte{0xC}, 123)}
	handlers[10](10)
	if len(got) != 1 || len(got[0]) != 123 {
		t.Fatalf("dma receive: %d frames", len(got))
	}
	// Busmaster transmit: straight from packet memory.
	skb := k.AllocSKB(64)
	copy(skb.Put(60), bytes.Repeat([]byte{9}, 60))
	if err := dev.HardStartXmit(skb, dev); err != nil {
		t.Fatal(err)
	}
	if len(chip.tx) != 1 {
		t.Fatal("no transmit")
	}
	_ = dev.Stop(dev)
}

// TestS3C59XAllocatesOnlyForFrames drives the 3c59x receive loop with a
// counting Kmalloc: an interrupt on an empty ring allocates nothing, a
// frame gets an skbuff of exactly its length, and a frame that finds no
// memory is consumed and counted without stalling the ones behind it.
func TestS3C59XAllocatesOnlyForFrames(t *testing.T) {
	k, handlers := driverKernel()
	chip := &fakeEther{vendor: s3c59xVendor, device: s3c59xDevice}
	dev := S3C59XProbe(k, chip, 10, "eth1")
	if err := dev.Open(dev); err != nil {
		t.Fatal(err)
	}
	defer dev.Stop(dev)
	allocs, fail := 0, false
	kmalloc := k.Kmalloc
	k.Kmalloc = func(size uint32, gfp int) *KBuf {
		if fail {
			return nil
		}
		allocs++
		return kmalloc(size, gfp)
	}
	var got []int
	k.NetifRx = func(skb *SKBuff) {
		got = append(got, skb.Len)
		skb.Free()
	}

	handlers[10](10)
	if allocs != 0 || len(got) != 0 {
		t.Fatalf("empty ring: %d kmallocs, %d frames; want 0, 0", allocs, len(got))
	}

	chip.rxq = [][]byte{make([]byte, 60), make([]byte, 1514)}
	handlers[10](10)
	if allocs != 2 || len(got) != 2 || got[0] != 60 || got[1] != 1514 {
		t.Fatalf("two frames: %d kmallocs, skbuff lengths %v; want 2, [60 1514]", allocs, got)
	}

	fail = true
	chip.rxq = [][]byte{make([]byte, 60), make([]byte, 70)}
	handlers[10](10)
	if len(chip.rxq) != 0 || dev.Stats.RxDropped != 2 || len(got) != 2 {
		t.Fatalf("no memory: %d frames left on the ring, RxDropped %d, %d delivered; want 0, 2, 2",
			len(chip.rxq), dev.Stats.RxDropped, len(got))
	}
	fail = false
	chip.rxq = [][]byte{make([]byte, 80)}
	handlers[10](10)
	if len(got) != 3 || got[2] != 80 || dev.Stats.RxPackets != 3 {
		t.Fatalf("after the failure lifted: skbuff lengths %v, RxPackets %d", got, dev.Stats.RxPackets)
	}
}

// fakeDisk is a scriptable DiskChip with synchronous completion.
type fakeDisk struct {
	vendor, device uint16
	sectors        uint32
	store          []byte
	done           []any
}

func (c *fakeDisk) IDs() (uint16, uint16) { return c.vendor, c.device }
func (c *fakeDisk) Sectors() uint32       { return c.sectors }
func (c *fakeDisk) Start(write bool, sector, count uint32, buf []byte, tag any) {
	off := sector * IDESectorSize
	n := count * IDESectorSize
	if write {
		copy(c.store[off:off+n], buf)
	} else {
		copy(buf, c.store[off:off+n])
	}
	c.done = append(c.done, tag)
}
func (c *fakeDisk) Done() (any, error, bool) {
	if len(c.done) == 0 {
		return nil, nil, false
	}
	t := c.done[0]
	c.done = c.done[1:]
	return t, nil, true
}

func TestIDEDonorRequestPath(t *testing.T) {
	k, handlers := driverKernel()
	// Make SleepOn service the completion like the real interrupt would
	// (the fake chip completes synchronously inside Start).
	chip := &fakeDisk{vendor: ideVendor, device: ideDevice, sectors: 64, store: make([]byte, 64*IDESectorSize)}
	disk := IDEProbe(k, chip, 14, "hd0")
	if disk == nil || len(k.Disks()) != 1 {
		t.Fatal("probe failed")
	}
	if IDEProbe(k, &fakeDisk{vendor: 1, device: 2}, 14, "hdX") != nil {
		t.Fatal("foreign controller claimed")
	}
	// Closed: requests refused.
	if err := disk.ReadSectors(0, 1, make([]byte, 512)); err == nil {
		t.Fatal("request on closed disk succeeded")
	}
	if err := disk.Open(); err != nil {
		t.Fatal(err)
	}
	// Completion arrives via the "interrupt": run the handler from
	// SleepOn, emulating the IRQ during the sleep.
	k.SleepOn = func(q *WaitQueue) { handlers[14](14) }

	wdata := bytes.Repeat([]byte("D"), 2*512)
	if err := disk.WriteSectors(3, 2, wdata); err != nil {
		t.Fatal(err)
	}
	rdata := make([]byte, 2*512)
	if err := disk.ReadSectors(3, 2, rdata); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rdata, wdata) {
		t.Fatal("round trip corrupted")
	}
	// Short buffer rejected.
	if err := disk.ReadSectors(0, 4, make([]byte, 512)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
}
