package linuxdev

import (
	"fmt"

	"oskit/internal/com"
	"oskit/internal/dev"
	"oskit/internal/hw"
	"oskit/internal/linux/legacy"
)

// InitEthernet registers the Linux Ethernet driver set with the
// framework — fdev_linux_init_ethernet from the §5 initialization
// sequence, which "causes all supported drivers to be linked into the
// resulting application".  (A client can alternatively register a single
// driver with InitEthernetDriver.)
func InitEthernet(fw *dev.Framework) {
	InitEthernetDriver(fw, "sne2k")
	InitEthernetDriver(fw, "s3c59x")
}

// InitEthernetDriver registers one named Linux Ethernet driver.
func InitEthernetDriver(fw *dev.Framework, name string) {
	d := &etherDriver{name: name}
	d.InitDriver(com.DeviceInfo{
		Name:        name,
		Description: "Linux 2.0-style Ethernet driver (encapsulated)",
		Vendor:      "linux",
		Driver:      name,
	})
	fw.RegisterDriver(d)
}

// etherDriver probes the machine bus for chips its donor driver claims.
type etherDriver struct {
	dev.DriverBase
	name string
}

// Probe implements dev.Prober.
func (d *etherDriver) Probe(fw *dev.Framework) int {
	g := GlueFor(fw.Env())
	n := 0
	for _, bd := range fw.Env().Machine.Bus.Devices() {
		nic, ok := bd.HW.(*hw.NIC)
		if !ok {
			continue
		}
		chip := &nicChip{nic: nic, vendor: bd.Vendor, device: bd.Device}
		g.mu.Lock()
		unit := g.nextEth
		g.mu.Unlock()
		name := fmt.Sprintf("eth%d", unit)
		var ldev *legacy.NetDevice
		switch d.name {
		case "sne2k":
			ldev = legacy.SNE2KProbe(g.kern, chip, bd.IRQ, name)
		case "s3c59x":
			ldev = legacy.S3C59XProbe(g.kern, chip, bd.IRQ, name)
		}
		if ldev == nil {
			continue
		}
		g.mu.Lock()
		g.nextEth++
		g.mu.Unlock()
		node := &etherDev{g: g, ldev: ldev, info: com.DeviceInfo{
			Name:        name,
			Description: "Ethernet interface",
			Vendor:      "linux",
			Driver:      d.name,
		}}
		node.Init()
		g.mu.Lock()
		g.route[ldev] = node
		g.mu.Unlock()
		fw.RegisterDevice(node)
		n++
	}
	return n
}

// etherDev is the COM device node for one donor network device.
type etherDev struct {
	com.RefCount
	g    *Glue
	ldev *legacy.NetDevice
	info com.DeviceInfo
	recv com.NetIO
	// pollers, when non-empty, are the fast-path polled receive loops
	// (one per receive ring) that have replaced the donor ISR on this
	// device (rxpoll.go).
	pollers []*rxPoller
}

// QueryInterface implements com.IUnknown: the node answers for Device and
// EtherDev (the common interfaces that "hide the nature and origin of
// each individual driver", §4.6).
func (e *etherDev) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.DeviceIID, com.EtherDevIID:
		e.AddRef()
		return e, nil
	}
	return nil, com.ErrNoInterface
}

// GetInfo implements com.Device.
func (e *etherDev) GetInfo() com.DeviceInfo { return e.info }

// GetAddr implements com.EtherDev.
func (e *etherDev) GetAddr() [6]byte { return e.ldev.MAC }

// Open implements com.EtherDev: brings the donor device up and exchanges
// NetIO callbacks (§5).
func (e *etherDev) Open(recv com.NetIO) (com.NetIO, error) {
	if e.recv != nil {
		return nil, com.ErrBusy
	}
	recv.AddRef()
	e.recv = recv
	if err := e.ldev.Open(e.ldev); err != nil {
		e.recv = nil
		recv.Release()
		return nil, com.ErrNoDev
	}
	// On a fast-path glue the open device switches to the polled
	// receive loop.
	e.g.engageRxPoll(e)
	s := &etherSend{g: e.g, node: e}
	s.Init()
	return s, nil
}

// Close implements com.EtherDev.
func (e *etherDev) Close() error {
	if e.recv == nil {
		return com.ErrInval
	}
	for _, p := range e.pollers {
		p.stop()
	}
	e.pollers = nil
	_ = e.ldev.Stop(e.ldev)
	e.recv.Release()
	e.recv = nil
	return nil
}

// Stats exposes the donor statistics (extended, driver-specific
// information per the open-implementation philosophy, §4.6).
func (e *etherDev) Stats() legacy.NetStats { return e.ldev.Stats }

var _ com.EtherDev = (*etherDev)(nil)

// etherSend is the transmit-side NetIO handed to the client at Open.
type etherSend struct {
	com.RefCount
	g    *Glue
	node *etherDev
}

// QueryInterface implements com.IUnknown.
func (s *etherSend) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.NetIOIID:
		s.AddRef()
		return s, nil
	}
	return nil, com.ErrNoInterface
}

// Push implements com.NetIO: transmit one packet.  This is the exact
// §4.7.3 decision tree: a native skbuff is used as is; a foreign BufIO
// that can be mapped contiguously becomes a "fake" skbuff pointing at
// its data with no copy; anything else is read (copied) into a fresh
// skbuff.  On a fast-path glue (one assembled with an allocator
// service) one more branch sits between those two: if the device can
// gather (FeatSG) and the producer exports its fragment list
// (com.SGBufIO), a scattered packet becomes a gather skbuff — no
// flatten copy, which is the Table-1 send cost E11 measures the
// recovery of.
func (s *etherSend) Push(pkt com.BufIO, size uint) error {
	defer pkt.Release() // Push consumes the caller's reference

	ldev := s.node.ldev
	if skb, ok := s.g.nativeSKB(pkt); ok {
		s.g.scTxNative.Inc()
		skb.Trim(int(size))
		return mapXmitErr(ldev.HardStartXmit(skb, ldev))
	}
	if data, err := pkt.Map(0, size); err == nil {
		s.g.scTxMapped.Inc()
		skb := s.g.kern.FakeSKB(data)
		err := ldev.HardStartXmit(skb, ldev)
		_ = pkt.Unmap(data)
		return mapXmitErr(err)
	}
	if s.g.pool != nil && ldev.Features&legacy.FeatSG != 0 {
		if obj, err := pkt.QueryInterface(com.SGBufIOIID); err == nil {
			sg := obj.(com.SGBufIO)
			if parts, err := sg.MapSG(0, size); err == nil {
				s.g.scTxSG.Inc()
				skb := s.g.kern.FakeSKBGather(parts)
				xerr := ldev.HardStartXmit(skb, ldev)
				_ = sg.UnmapSG(parts)
				sg.Release()
				return mapXmitErr(xerr)
			}
			sg.Release()
		}
	}
	s.g.scTxFlattened.Inc()
	skb := s.g.kern.AllocSKB(int(size))
	if skb == nil {
		return com.ErrNoMem
	}
	n, err := pkt.Read(skb.Put(int(size)), 0)
	if err != nil || n < size {
		skb.Free()
		return com.ErrIO
	}
	return mapXmitErr(ldev.HardStartXmit(skb, ldev))
}

// AllocBufIO implements com.NetIO: hand the producer a native skbuff so
// its fill is already in the donor representation.
func (s *etherSend) AllocBufIO(size uint) (com.BufIO, error) {
	skb := s.g.kern.AllocSKB(int(size))
	if skb == nil {
		return nil, com.ErrNoMem
	}
	skb.Put(int(size))
	return s.g.wrapSKB(skb), nil
}

func mapXmitErr(err error) error {
	if err == nil {
		return nil
	}
	return com.ErrIO
}
