package linuxdev

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/core"
	"oskit/internal/dev"
	"oskit/internal/hw"
	"oskit/internal/kern"
)

// rig builds a machine with the requested NIC model(s) and a disk, booted
// far enough for driver work.
type rig struct {
	m   *hw.Machine
	k   *kern.Kernel
	fw  *dev.Framework
	nic *hw.NIC
}

func newRig(t *testing.T, sw *hw.EtherSwitch, mac byte, model hw.NICModel) *rig {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "rig", MemBytes: 8 << 20})
	t.Cleanup(m.Halt)
	var nic *hw.NIC
	if sw != nil {
		nic = m.AttachNIC(sw, [6]byte{2, 0, 0, 0, 0, mac}, model)
	}
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	fw := dev.NewFramework(k.Env)
	return &rig{m: m, k: k, fw: fw, nic: nic}
}

// sink collects pushed packets.
type sink struct {
	com.RefCount
	mu   sync.Mutex
	pkts [][]byte
	cond chan struct{}
}

func newSink() *sink {
	s := &sink{cond: make(chan struct{}, 64)}
	s.Init()
	return s
}

func (s *sink) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	if iid == com.UnknownIID || iid == com.NetIOIID {
		s.AddRef()
		return s, nil
	}
	return nil, com.ErrNoInterface
}

func (s *sink) Push(pkt com.BufIO, size uint) error {
	data, err := com.ReadFullBufIO(pkt, size)
	pkt.Release()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.pkts = append(s.pkts, data)
	s.mu.Unlock()
	select {
	case s.cond <- struct{}{}:
	default:
	}
	return nil
}

func (s *sink) AllocBufIO(size uint) (com.BufIO, error) { return nil, com.ErrNotImplemented }

func (s *sink) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		s.mu.Lock()
		if len(s.pkts) >= n {
			out := append([][]byte(nil), s.pkts...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-s.cond:
		case <-deadline:
			t.Fatalf("timed out waiting for %d packets", n)
		}
	}
}

func openEther(t *testing.T, r *rig) (com.EtherDev, com.NetIO, *sink) {
	t.Helper()
	InitEthernet(r.fw)
	if n := r.fw.Probe(); n != 1 {
		t.Fatalf("probe claimed %d devices", n)
	}
	devs := r.fw.LookupByIID(com.EtherDevIID)
	if len(devs) != 1 {
		t.Fatalf("ether devices = %d", len(devs))
	}
	ed := devs[0].(com.EtherDev)
	rx := newSink()
	tx, err := ed.Open(rx)
	if err != nil {
		t.Fatal(err)
	}
	return ed, tx, rx
}

func ethFrame(dst, src [6]byte, payload []byte) []byte {
	f := make([]byte, 14+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00
	copy(f[14:], payload)
	return f
}

// TestEtherEndToEnd drives both donor drivers over the wire: a PIO-style
// sne2k machine talking to a busmaster-style s3c59x machine, each through
// the COM interfaces only.
func TestEtherEndToEnd(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a := newRig(t, sw, 1, hw.ModelNE2K)
	b := newRig(t, sw, 2, hw.Model3C59X)
	edA, txA, rxA := openEther(t, a)
	edB, txB, rxB := openEther(t, b)

	if edA.GetAddr() != [6]byte{2, 0, 0, 0, 0, 1} {
		t.Fatalf("A mac = %v", edA.GetAddr())
	}

	// A -> B via a foreign (MemBuf) packet: exercises the map-to-fake-
	// skbuff transmit path.
	payload := bytes.Repeat([]byte{0xA5}, 100)
	f := ethFrame(edB.GetAddr(), edA.GetAddr(), payload)
	if err := txA.Push(com.NewMemBuf(f), uint(len(f))); err != nil {
		t.Fatal(err)
	}
	got := rxB.wait(t, 1)
	if !bytes.Equal(got[0], f) {
		t.Fatalf("B received %d bytes, want %d", len(got[0]), len(f))
	}

	// B -> A via a native skbuff from AllocBufIO: the no-copy fill path.
	f2 := ethFrame(edA.GetAddr(), edB.GetAddr(), []byte("native skb path"))
	bio, err := txB.AllocBufIO(uint(len(f2)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := bio.Map(0, uint(len(f2)))
	if err != nil {
		t.Fatal(err)
	}
	copy(m, f2)
	if err := bio.Unmap(m); err != nil {
		t.Fatal(err)
	}
	if err := txB.Push(bio, uint(len(f2))); err != nil {
		t.Fatal(err)
	}
	got = rxA.wait(t, 1)
	if !bytes.Equal(got[0], f2) {
		t.Fatalf("A received %q", got[0])
	}

	// Driver-specific stats are reachable through the node (§4.6).
	if nodeA, ok := edA.(*etherDev); ok {
		if nodeA.Stats().TxPackets != 1 || nodeA.Stats().RxPackets != 1 {
			t.Fatalf("A stats = %+v", nodeA.Stats())
		}
	}

	if err := edA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := edA.Close(); err == nil {
		t.Fatal("double close succeeded")
	}
	txA.Release()
	txB.Release()
	edA.Release()
	edB.Release()
}

// TestForeignUnmappablePacket exercises the read-copy fallback of §4.7.3.
func TestForeignUnmappablePacket(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a := newRig(t, sw, 1, hw.ModelNE2K)
	b := newRig(t, sw, 2, hw.ModelNE2K)
	edA, txA, _ := openEther(t, a)
	_, _, rxB := openEther(t, b)

	f := ethFrame([6]byte{2, 0, 0, 0, 0, 2}, edA.GetAddr(), []byte("chained"))
	pkt := &noMapBuf{MemBuf: com.NewMemBuf(f)}
	if err := txA.Push(pkt, uint(len(f))); err != nil {
		t.Fatal(err)
	}
	got := rxB.wait(t, 1)
	if !bytes.Equal(got[0], f) {
		t.Fatalf("received %q", got[0])
	}
}

type noMapBuf struct{ *com.MemBuf }

func (b *noMapBuf) Map(offset, amount uint) ([]byte, error) {
	return nil, com.ErrNotImplemented
}

func TestNativeSkbRecognition(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 4 << 20})
	defer m.Halt()
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := GlueFor(k.Env)
	skb := g.kern.AllocSKB(64)
	if skb == nil {
		t.Fatal("AllocSKB failed")
	}
	skb.Put(64)
	bio := g.wrapSKB(skb)
	// Own objects are recognized...
	if got, ok := g.nativeSKB(bio); !ok {
		t.Fatal("native skb not recognized")
	} else {
		got.Free()
	}
	// ...objects from another glue instance are foreign.
	m2 := hw.NewMachine(hw.Config{MemBytes: 4 << 20})
	defer m2.Halt()
	k2, _ := kern.Setup(m2, nil)
	g2 := GlueFor(k2.Env)
	if _, ok := g2.nativeSKB(bio); ok {
		t.Fatal("foreign skb recognized as native")
	}
	// ...and plain MemBufs are foreign.
	if _, ok := g.nativeSKB(com.NewMemBuf(make([]byte, 8))); ok {
		t.Fatal("MemBuf recognized as native")
	}
	// Releasing the BufIO frees the skbuff.
	if bio.Release() != 0 {
		t.Fatal("refs remain")
	}
	if skb.Users() != 0 {
		t.Fatalf("skb users = %d after last release", skb.Users())
	}
}

func TestIDEBlkIO(t *testing.T) {
	r := newRig(t, nil, 0, hw.NICModel{})
	r.m.AttachDisk(hw.NewDisk(256))
	InitIDE(r.fw)
	if n := r.fw.Probe(); n != 1 {
		t.Fatalf("probe = %d", n)
	}
	blks := r.fw.LookupByIID(com.BlkIOIID)
	if len(blks) != 1 {
		t.Fatalf("blkio devices = %d", len(blks))
	}
	b := blks[0].(com.BlkIO)
	defer b.Release()

	if b.BlockSize() != 512 {
		t.Fatalf("BlockSize = %d", b.BlockSize())
	}
	size, err := b.Size()
	if err != nil || size != 256*512 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	// Raw disks reject unaligned I/O.
	if _, err := b.Read(make([]byte, 100), 0); err != com.ErrInval {
		t.Fatalf("unaligned read: %v", err)
	}
	if _, err := b.Read(make([]byte, 512), 7); err != com.ErrInval {
		t.Fatalf("unaligned offset: %v", err)
	}
	if _, err := b.Read(make([]byte, 512), 256*512); err != com.ErrInval {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := b.SetSize(1); err != com.ErrNotImplemented {
		t.Fatalf("SetSize: %v", err)
	}
	// BufIO must NOT be available on a raw disk (§4.4.2).
	if _, err := b.QueryInterface(com.BufIOIID); err != com.ErrNoInterface {
		t.Fatalf("raw disk exported BufIO: %v", err)
	}

	// Write/read through the donor request+sleep path.
	wdata := bytes.Repeat([]byte("sector pattern! "), 512*4/16)
	n, err := b.Write(wdata, 3*512)
	if err != nil || n != uint(len(wdata)) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	rdata := make([]byte, len(wdata))
	n, err = b.Read(rdata, 3*512)
	if err != nil || n != uint(len(rdata)) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if !bytes.Equal(rdata, wdata) {
		t.Fatal("read back differs")
	}
	// The bits really are on the simulated platter.
	disks := r.m.Bus.Find(hw.VendorMisc, hw.DevIDE)
	img := disks[0].HW.(*hw.Disk).Image()
	if !bytes.Equal(img[3*512:3*512+16], []byte("sector pattern! ")) {
		t.Fatal("disk image does not contain written data")
	}
}

func TestKmallocGFPDMA(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 8 << 20})
	defer m.Halt()
	k, _ := kern.Setup(m, nil)
	g := GlueFor(k.Env)
	b := g.kern.Kmalloc(4096, 0x80 /* GFPDMA */)
	if b == nil || b.Addr >= hw.DMALimit {
		t.Fatalf("GFP_DMA kmalloc at %#x", b.Addr)
	}
	g.kern.Kfree(b)
	if g.kern.Jiffies() != k.Env.Ticks() {
		t.Fatal("jiffies not wired to the kit clock")
	}
	// PhysToVirt is the direct map.
	p := g.kern.PhysToVirt(0x200000, 4)
	p[0] = 0xEE
	if m.Mem.MustSlice(0x200000, 1)[0] != 0xEE {
		t.Fatal("PhysToVirt is not the direct physical map")
	}
}

func TestCurrentManufacturedOnDemand(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 4 << 20})
	defer m.Halt()
	k, _ := kern.Setup(m, nil)
	g := GlueFor(k.Env)
	if g.kern.Current != nil {
		t.Fatal("current set before entry")
	}
	restore := g.enter("test-entry")
	if g.kern.Current == nil || g.kern.Current.Comm != "test-entry" {
		t.Fatalf("current = %+v", g.kern.Current)
	}
	inner := g.enter("nested")
	if g.kern.Current.Comm != "nested" {
		t.Fatal("nested entry did not switch current")
	}
	inner()
	if g.kern.Current.Comm != "test-entry" {
		t.Fatal("restore did not pop to outer entry")
	}
	restore()
	if g.kern.Current != nil {
		t.Fatal("current leaked after restore")
	}
	_ = core.DefaultTickNanos
}

// An injected kmalloc failure must look exactly like GFP exhaustion —
// nil return, counted in kmalloc.failures — and clear when removed.
func TestKmallocFaultHook(t *testing.T) {
	m := hw.NewMachine(hw.Config{Name: "kmfault", MemBytes: 8 << 20})
	t.Cleanup(m.Halt)
	k, _ := kern.Setup(m, nil)
	g := GlueFor(k.Env)

	g.SetKmallocFaultHook(func(size uint32) bool { return true })
	if b := g.Kernel().Kmalloc(128, 0); b != nil {
		t.Fatal("hooked kmalloc succeeded")
	}
	g.SetKmallocFaultHook(nil)
	b := g.Kernel().Kmalloc(128, 0)
	if b == nil {
		t.Fatal("kmalloc failed after hook removal")
	}
	g.Kernel().Kfree(b)
}
