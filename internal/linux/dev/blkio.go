package linuxdev

import (
	"fmt"

	"oskit/internal/com"
	"oskit/internal/dev"
	"oskit/internal/hw"
	"oskit/internal/linux/legacy"
)

// InitIDE registers the Linux IDE disk driver (fdev_linux_init_ide).
func InitIDE(fw *dev.Framework) {
	d := &ideDriver{}
	d.InitDriver(com.DeviceInfo{
		Name:        "side",
		Description: "Linux 2.0-style IDE disk driver (encapsulated)",
		Vendor:      "linux",
		Driver:      "side",
	})
	fw.RegisterDriver(d)
}

type ideDriver struct {
	dev.DriverBase
}

// Probe implements dev.Prober.
func (d *ideDriver) Probe(fw *dev.Framework) int {
	g := GlueFor(fw.Env())
	n := 0
	for _, bd := range fw.Env().Machine.Bus.Devices() {
		disk, ok := bd.HW.(*hw.Disk)
		if !ok {
			continue
		}
		chip := newDiskChip(disk, bd.Vendor, bd.Device)
		g.mu.Lock()
		unit := g.nextHD
		g.mu.Unlock()
		name := fmt.Sprintf("hd%d", unit)
		ldisk := legacy.IDEProbe(g.kern, chip, bd.IRQ, name)
		if ldisk == nil {
			continue
		}
		g.mu.Lock()
		g.nextHD++
		g.mu.Unlock()
		if err := ldisk.Open(); err != nil {
			continue
		}
		node := &ideDev{g: g, disk: ldisk, info: com.DeviceInfo{
			Name:        name,
			Description: "IDE disk",
			Vendor:      "linux",
			Driver:      "side",
		}}
		node.Init()
		fw.RegisterDevice(node)
		n++
	}
	return n
}

// ideDev is the COM node for one donor disk, exporting the Figure 2
// blkio interface over the donor request path.  Raw disk drivers are
// strict about granularity: offsets and sizes must be sector multiples.
type ideDev struct {
	com.RefCount
	g    *Glue
	disk *legacy.IDEDisk
	info com.DeviceInfo
}

// QueryInterface implements com.IUnknown: raw, unbuffered disk drivers
// provide only the basic BlkIO, not the BufIO extension (§4.4.2) —
// a read or write translates to actual disk I/O, so there is nothing to
// map.
func (d *ideDev) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.DeviceIID, com.BlkIOIID:
		d.AddRef()
		return d, nil
	}
	return nil, com.ErrNoInterface
}

// GetInfo implements com.Device.
func (d *ideDev) GetInfo() com.DeviceInfo { return d.info }

// BlockSize implements com.BlkIO.
func (d *ideDev) BlockSize() uint { return legacy.IDESectorSize }

// Read implements com.BlkIO.
func (d *ideDev) Read(buf []byte, offset uint64) (uint, error) {
	sector, count, err := d.geometry(buf, offset)
	if err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, nil
	}
	if err := d.disk.ReadSectors(sector, count, buf); err != nil {
		return 0, com.ErrIO
	}
	d.g.scBlkReads.Inc()
	d.g.scBlkRdBytes.Add(uint64(count) * legacy.IDESectorSize)
	return uint(count) * legacy.IDESectorSize, nil
}

// Write implements com.BlkIO.
func (d *ideDev) Write(buf []byte, offset uint64) (uint, error) {
	sector, count, err := d.geometry(buf, offset)
	if err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, nil
	}
	if err := d.disk.WriteSectors(sector, count, buf); err != nil {
		return 0, com.ErrIO
	}
	d.g.scBlkWrites.Inc()
	d.g.scBlkWrBytes.Add(uint64(count) * legacy.IDESectorSize)
	return uint(count) * legacy.IDESectorSize, nil
}

// Size implements com.BlkIO.
func (d *ideDev) Size() (uint64, error) {
	return uint64(d.disk.Sectors()) * legacy.IDESectorSize, nil
}

// SetSize implements com.BlkIO; disks are fixed-size.
func (d *ideDev) SetSize(uint64) error { return com.ErrNotImplemented }

// geometry validates sector alignment and bounds.
func (d *ideDev) geometry(buf []byte, offset uint64) (sector, count uint32, err error) {
	if offset%legacy.IDESectorSize != 0 || len(buf)%legacy.IDESectorSize != 0 {
		return 0, 0, com.ErrInval
	}
	sector = uint32(offset / legacy.IDESectorSize)
	count = uint32(len(buf) / legacy.IDESectorSize)
	if sector+count > d.disk.Sectors() {
		return 0, 0, com.ErrInval
	}
	return sector, count, nil
}

var _ com.BlkIO = (*ideDev)(nil)
