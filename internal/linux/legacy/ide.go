package legacy

import (
	"sync"
	"sync/atomic"
)

// sIDE: the kit's donor IDE disk driver, in the Linux request-queue
// style: requests are started on the controller, the caller sleeps on the
// request's wait queue, and the interrupt handler reaps completions and
// wakes the sleepers — the sleep/wakeup traffic the glue of §4.7.6 has to
// emulate.

const (
	ideVendor = 0x1af4
	ideDevice = 0x0010

	// IDESectorSize is the fixed sector size donor code assumes.
	IDESectorSize = 512
)

// IDERequest is one queued transfer.
type IDERequest struct {
	Write  bool
	Sector uint32
	Count  uint32
	Buf    []byte

	Wait WaitQueue
	// Done is atomic (and publishes Err, written before it): on an SMP
	// machine the handler runs on another CPU and cli orders nothing.
	Done atomic.Bool
	Err  error
}

// IDEDisk is one probed drive.
type IDEDisk struct {
	Kern *Kernel
	Name string
	IRQ  int
	Chip DiskChip

	opened bool

	// reqs is the driver's free list of request records (Linux's
	// all_requests[]): a record and its wait queue are reused, so a
	// sector transfer allocates nothing.
	reqMu sync.Mutex
	reqs  []*IDERequest
}

// IDEProbe examines one candidate controller and registers a disk when it
// answers to the expected IDs.
func IDEProbe(k *Kernel, chip DiskChip, irq int, name string) *IDEDisk {
	if v, d := chip.IDs(); v != ideVendor || d != ideDevice {
		return nil
	}
	disk := &IDEDisk{Kern: k, Name: name, IRQ: irq, Chip: chip}
	k.RegisterDisk(disk)
	k.Printk("side: %s, %d sectors at irq %d\n", name, chip.Sectors(), irq)
	return disk
}

// Open installs the completion interrupt handler.
func (d *IDEDisk) Open() error {
	if d.opened {
		return nil
	}
	if err := d.Kern.RequestIRQ(d.IRQ, func(int) { d.interrupt() }, d.Name); err != nil {
		return err
	}
	d.opened = true
	return nil
}

// Close releases the interrupt line.
func (d *IDEDisk) Close() error {
	if !d.opened {
		return nil
	}
	d.Kern.FreeIRQ(d.IRQ)
	d.opened = false
	return nil
}

// Sectors returns the drive capacity.
func (d *IDEDisk) Sectors() uint32 { return d.Chip.Sectors() }

// interrupt reaps every pending completion and wakes its sleeper.
func (d *IDEDisk) interrupt() {
	for {
		tag, err, ok := d.Chip.Done()
		if !ok {
			return
		}
		r := tag.(*IDERequest)
		r.Err = err
		r.Done.Store(true)
		d.Kern.WakeUp(&r.Wait)
	}
}

// DoRequest runs one transfer to completion, sleeping while the hardware
// works — the donor cli/sleep_on idiom, with the interrupt-exclusion
// dance guarding the Done test against the completion racing in between
// check and sleep.
func (d *IDEDisk) DoRequest(r *IDERequest) error {
	if !d.opened {
		return ENETDOWN
	}
	if uint32(len(r.Buf)) < r.Count*IDESectorSize {
		return EIO
	}
	k := d.Kern
	d.Chip.Start(r.Write, r.Sector, r.Count, r.Buf, r)
	// sleep_on is entered with interrupts disabled; it atomically
	// registers the sleeper, re-enables while blocked, and returns with
	// interrupts disabled again — which is what closes the classic
	// completed-before-sleep window against the Done test.
	flags := k.SaveFlags()
	k.Cli()
	for !r.Done.Load() {
		k.SleepOn(&r.Wait)
	}
	k.RestoreFlags(flags)
	return r.Err
}

// ReadSectors is the convenience read path.
func (d *IDEDisk) ReadSectors(sector, count uint32, buf []byte) error {
	return d.transfer(false, sector, count, buf)
}

// WriteSectors is the convenience write path.
func (d *IDEDisk) WriteSectors(sector, count uint32, buf []byte) error {
	return d.transfer(true, sector, count, buf)
}

// transfer runs one request on a record from the free list.  A record
// goes back only once DoRequest has returned, when the interrupt
// handler is done with it.
func (d *IDEDisk) transfer(write bool, sector, count uint32, buf []byte) error {
	d.reqMu.Lock()
	var r *IDERequest
	if n := len(d.reqs); n > 0 {
		r = d.reqs[n-1]
		d.reqs = d.reqs[:n-1]
	} else {
		r = &IDERequest{}
	}
	d.reqMu.Unlock()
	r.Write, r.Sector, r.Count, r.Buf, r.Err = write, sector, count, buf, nil
	r.Done.Store(false)
	err := d.DoRequest(r)
	r.Buf = nil
	d.reqMu.Lock()
	d.reqs = append(d.reqs, r)
	d.reqMu.Unlock()
	return err
}
