package hw

import (
	"errors"
	"fmt"
	"sync"
)

// SectorSize is the simulated disk's sector size.
const SectorSize = 512

// ErrDiskStopped is the completion error of a request the disk failed
// because the machine powered off before (or while) servicing it.  A
// request submitted to a live disk is guaranteed to complete — with its
// transfer done, a media error, or this — never to vanish.
var ErrDiskStopped = errors.New("hw: disk stopped")

// DiskFault is one injected disk fault, produced by a DiskFaultHook.
// A zero value means "no fault".
type DiskFault struct {
	// Err, when non-nil, fails the request with this error.
	Err error
	// TornSectors, for a faulted write, is how many leading sectors
	// actually reach the platter before the failure — a torn write.
	// Zero leaves the media untouched.
	TornSectors uint32
}

// DiskFaultHook decides the fate of one request just before the media
// transfer.  It runs on the disk's service goroutine, one request at a
// time, so decisions are made in service order.
type DiskFaultHook func(write bool, sector, count uint32) DiskFault

// DiskReq is one disk transfer.  The driver fills in the geometry and, for
// writes, the data; the disk completes asynchronously and raises its IRQ.
// Buf must be Count*SectorSize bytes; for reads it is filled in place
// (simulated DMA into the driver's buffer).
type DiskReq struct {
	Write  bool
	Sector uint32
	Count  uint32
	Buf    []byte
	// Tag is the driver's own cookie, carried and never touched.
	Tag any

	// Done and Err are valid once the completion interrupt fires.
	Done bool
	Err  error
}

// popFront removes the oldest request of a queue, keeping its storage
// so that queueing allocates nothing once the queue has grown.
func popFront(q *[]*DiskReq) *DiskReq {
	if len(*q) == 0 {
		return nil
	}
	r := (*q)[0]
	n := copy(*q, (*q)[1:])
	(*q)[n] = nil
	*q = (*q)[:n]
	return r
}

// Disk is a simulated fixed disk with a request queue and completion
// interrupts.
type Disk struct {
	ic   *IntrController
	line int

	sectors uint32 //oskit:initonly

	mu sync.Mutex
	// data is the image: an anonymous mapping like machine memory
	// (mapMem), released when the owning machine halts (nil after).
	data    []byte        //oskit:guardedby mu
	queue   []*DiskReq    //oskit:guardedby mu
	done    []*DiskReq    //oskit:guardedby mu
	hook    DiskFaultHook //oskit:guardedby mu
	wake    chan struct{} //oskit:initonly
	quit    chan struct{} //oskit:initonly
	wg      sync.WaitGroup
	started bool //oskit:guardedby mu
	stopped bool //oskit:guardedby mu
}

// NewDisk creates a zero-filled disk of the given number of sectors.
func NewDisk(sectors uint32) *Disk {
	return &Disk{
		sectors: sectors,
		data:    mapMem(uint64(sectors) * SectorSize),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
}

// Sectors returns the disk capacity in sectors.
func (d *Disk) Sectors() uint32 { return d.sectors }

// SetFaultHook installs (or, with nil, removes) the fault-injection hook
// consulted before each media transfer.
func (d *Disk) SetFaultHook(h DiskFaultHook) {
	d.mu.Lock()
	d.hook = h
	d.mu.Unlock()
}

// Image returns a copy of the raw disk contents (for test inspection);
// empty once the owning machine has halted.
func (d *Disk) Image() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.data...)
}

// connect attaches the disk to a machine's interrupt controller and starts
// its service goroutine; called by Machine.AttachDisk.
func (d *Disk) connect(ic *IntrController, line int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		panic("hw: disk attached twice")
	}
	if d.stopped {
		panic("hw: disk attached after power-off")
	}
	d.ic = ic
	d.line = line
	d.started = true
	d.wg.Add(1)
	go d.serve()
}

// IRQ returns the disk's interrupt line.
func (d *Disk) IRQ() int { return d.line }

// Submit queues one request.  Completion is signalled by the disk IRQ;
// the driver then collects finished requests with Reap.  A request
// submitted after power-off completes immediately with ErrDiskStopped.
func (d *Disk) Submit(r *DiskReq) {
	d.mu.Lock()
	if d.stopped {
		r.Err = ErrDiskStopped
		r.Done = true
		d.done = append(d.done, r)
		ic, line := d.ic, d.line
		d.mu.Unlock()
		if ic != nil {
			ic.Raise(line)
		}
		return
	}
	d.queue = append(d.queue, r)
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Reap removes and returns one completed request, or nil.
func (d *Disk) Reap() *DiskReq {
	d.mu.Lock()
	defer d.mu.Unlock()
	return popFront(&d.done)
}

func (d *Disk) serve() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		r := popFront(&d.queue)
		hook := d.hook
		d.mu.Unlock()

		if r == nil {
			select {
			case <-d.wake:
				continue
			case <-d.quit:
				return
			}
		}

		var fault DiskFault
		if hook != nil {
			fault = hook(r.Write, r.Sector, r.Count)
		}
		if fault.Err != nil {
			if r.Write && fault.TornSectors > 0 {
				torn := fault.TornSectors
				if torn > r.Count {
					torn = r.Count
				}
				_ = d.transferRange(r, torn)
			}
			d.complete(r, fault.Err)
			continue
		}
		d.complete(r, d.transfer(r))
	}
}

// complete finishes one request and raises the completion interrupt.
func (d *Disk) complete(r *DiskReq, err error) {
	r.Err = err
	r.Done = true
	d.mu.Lock()
	d.done = append(d.done, r)
	d.mu.Unlock()
	if d.ic != nil {
		d.ic.Raise(d.line)
	}
}

func (d *Disk) transfer(r *DiskReq) error {
	return d.transferRange(r, r.Count)
}

// transferRange moves the first count sectors of the request (a torn
// write moves fewer sectors than the request asked for).
func (d *Disk) transferRange(r *DiskReq, count uint32) error {
	n := uint64(count) * SectorSize
	off := uint64(r.Sector) * SectorSize
	d.mu.Lock()
	defer d.mu.Unlock()
	if off+n > uint64(len(d.data)) {
		return fmt.Errorf("hw: disk access beyond end (sector %d + %d)", r.Sector, count)
	}
	if uint64(len(r.Buf)) < n {
		return fmt.Errorf("hw: disk buffer too small: %d < %d", len(r.Buf), n)
	}
	if r.Write {
		copy(d.data[off:off+n], r.Buf)
	} else {
		copy(r.Buf, d.data[off:off+n])
	}
	return nil
}

// stop halts the service goroutine (machine power-off) and then fails
// every request still queued, so no submission is ever silently dropped:
// after stop returns, each submitted request is Done with either its
// transfer result or ErrDiskStopped.
func (d *Disk) stop() {
	d.mu.Lock()
	started := d.started
	d.started = false
	alreadyStopped := d.stopped
	d.stopped = true
	d.mu.Unlock()
	if started && !alreadyStopped {
		close(d.quit)
		d.wg.Wait()
	}
	d.mu.Lock()
	failed := len(d.queue) > 0
	for r := popFront(&d.queue); r != nil; r = popFront(&d.queue) {
		r.Err = ErrDiskStopped
		r.Done = true
		d.done = append(d.done, r)
	}
	ic, line := d.ic, d.line
	d.mu.Unlock()
	if failed && ic != nil {
		ic.Raise(line)
	}
}

// release gives the image back once the service goroutine has stopped
// (Machine.Halt); idempotent.  Later transfers fail as beyond the end.
func (d *Disk) release() {
	d.mu.Lock()
	data := d.data
	d.data = nil
	d.mu.Unlock()
	unmapMem(data)
}
