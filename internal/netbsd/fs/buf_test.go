package netbsdfs

import (
	"slices"
	"testing"
	"time"

	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
)

// flakyDev wraps a BlkIO, logging every read request and failing any
// read that covers a scripted block.
type flakyDev struct {
	com.BlkIO
	failReads map[uint32]int // block number → remaining failures
	reads     []span         // every read request, in issue order
	before    func()         // runs at the start of each read, when set
}

// span is one read request in blocks.
type span struct{ blk, n uint32 }

func (d *flakyDev) Read(buf []byte, off uint64) (uint, error) {
	if d.before != nil {
		d.before()
	}
	s := span{uint32(off / BlockSize), uint32(len(buf) / BlockSize)}
	d.reads = append(d.reads, s)
	for blk := s.blk; blk < s.blk+s.n; blk++ {
		if n := d.failReads[blk]; n > 0 {
			d.failReads[blk] = n - 1
			return 0, com.ErrIO
		}
	}
	return d.BlkIO.Read(buf, off)
}

// TestBcacheFailedReadNoStaleAlias is the regression test for the
// wrong-block serve: the buffer of a fault-failed read is later
// recycled for another block, and no hash entry may still map the
// failed block number to it.  A stale entry would alias the old number
// to the recycled buffer, and once the new block's read succeeds, bread
// of the old number would hash-hit and return the *new* block's bytes
// as the old block — stable corruption until the next recycle.
func TestBcacheFailedReadNoStaleAlias(t *testing.T) {
	g, dev := ramDisk(t, 512)
	defer dev.Release()
	flaky := &flakyDev{BlkIO: dev, failReads: map[uint32]int{}}
	c := newBcache(g, new(fsLock), flaky, 0)

	// Distinct content per block, far from the Mkfs metadata.
	const base = 100
	blk := make([]byte, BlockSize)
	for i := uint32(base); i < base+2*nbufs+2; i++ {
		for j := range blk {
			blk[j] = byte(i)
		}
		if _, err := dev.Write(blk, uint64(i)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}

	entered(c, func() {
		// The faulted read: bread fails, leaving the buffer hashed
		// invalid.
		const victim = base
		flaky.failReads[victim] = 1
		if _, err := c.bread(victim); err != bsdglue.EIO {
			t.Fatalf("faulted bread = %v, want EIO", err)
		}

		// Cache pressure recycles every idle buffer — including the
		// invalid one — for other blocks.
		for i := uint32(base + 1); i < base+1+2*nbufs; i++ {
			b, err := c.bread(i)
			if err != nil {
				t.Fatalf("bread(%d): %v", i, err)
			}
			c.brelse(b)
		}

		// Re-reading the faulted block must hit the disk again and
		// return its own bytes, never another block's through a stale
		// hash entry.
		b, err := c.bread(victim)
		if err != nil {
			t.Fatalf("bread(%d) after recycle: %v", victim, err)
		}
		defer c.brelse(b)
		for j, got := range b.data {
			if got != byte(victim) {
				t.Fatalf("block %d byte %d = %#x, want %#x — stale alias served another block's bytes",
					victim, j, got, byte(victim))
			}
		}
	})
}

// TestBcacheFailedReadRetries pins the op-level retry contract the
// serving path leans on: a read that fails transiently succeeds on the
// next bread of the same block, with the buffer re-read from disk.
func TestBcacheFailedReadRetries(t *testing.T) {
	g, dev := ramDisk(t, 512)
	defer dev.Release()
	flaky := &flakyDev{BlkIO: dev, failReads: map[uint32]int{}}
	c := newBcache(g, new(fsLock), flaky, 0)

	blk := make([]byte, BlockSize)
	for j := range blk {
		blk[j] = 0x5A
	}
	if _, err := dev.Write(blk, 200*BlockSize); err != nil {
		t.Fatal(err)
	}
	flaky.failReads[200] = 2
	entered(c, func() {
		if _, err := c.bread(200); err != bsdglue.EIO {
			t.Fatalf("first bread = %v, want EIO", err)
		}
		if _, err := c.bread(200); err != bsdglue.EIO {
			t.Fatalf("second bread = %v, want EIO", err)
		}
		b, err := c.bread(200)
		if err != nil {
			t.Fatalf("third bread = %v", err)
		}
		defer c.brelse(b)
		if b.data[0] != 0x5A || !b.valid {
			t.Fatalf("retried read returned %#x valid=%v", b.data[0], b.valid)
		}
	})
}

// waitSleeper polls until a process sleeps on event.
func waitSleeper(t *testing.T, c *bcache, event uint32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.g.SleepersOn(event) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("nobody went to sleep")
		}
		time.Sleep(time.Millisecond)
	}
}

// await returns the error a goroutine sends on ch, failing the test if
// it never comes.
func await(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned: a lost wakeup", what)
		return nil
	}
}

// A reader that sleeps on a buffer whose read then fails must be woken:
// the failing reader releases the buffer through brelse, and the second
// reader retries the read itself instead of sleeping until some
// unrelated access touches the block.
func TestBcacheFailedReadWakesWaiter(t *testing.T) {
	g := testGlue(t)
	inDevice, release := make(chan struct{}), make(chan struct{})
	dev := &flakyDev{BlkIO: com.NewMemBuf(make([]byte, 16*BlockSize)), failReads: map[uint32]int{7: 1}}
	dev.before = func() {
		if len(dev.reads) == 0 {
			close(inDevice)
			<-release
		}
	}
	c := newBcache(g, new(fsLock), dev, 0)

	first, second := make(chan error, 1), make(chan error, 1)
	read := func(out chan<- error) {
		var err error
		entered(c, func() {
			var b *buf
			if b, err = c.bread(7); err == nil {
				c.brelse(b)
			}
		})
		out <- err
	}
	go read(first)
	<-inDevice // the first reader holds block 7 busy inside the driver
	event := c.hash[7].event
	go read(second)
	waitSleeper(t, c, event)
	close(release)

	if err := await(t, first, "the failing read"); err != bsdglue.EIO {
		t.Fatalf("failing read = %v, want EIO", err)
	}
	if err := await(t, second, "the waiting read"); err != nil {
		t.Fatalf("waiting read = %v, want its own successful retry", err)
	}
	if len(dev.reads) != 2 {
		t.Fatalf("%d device reads, want the failure and one retry", len(dev.reads))
	}
}

// A getblk that finds every buffer busy and none pinned sleeps on the
// cache's own "bufwait" event, and one brelse wakes it.
func TestBcacheBufwaitWokenByBrelse(t *testing.T) {
	g := testGlue(t)
	c := newBcache(g, new(fsLock), com.NewMemBuf(make([]byte, 2*nbufs*BlockSize)), 0)
	held := make([]*buf, nbufs)
	entered(c, func() {
		for i := range held {
			b, err := c.getblk(uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			held[i] = b
		}
	})
	got := make(chan *buf, 1)
	go entered(c, func() {
		b, err := c.getblk(nbufs)
		if err != nil {
			t.Error(err)
		}
		got <- b
	})
	waitSleeper(t, c, c.bufEvent)
	entered(c, func() { c.brelse(held[5]) })
	select {
	case b := <-got:
		if b != held[5] {
			t.Fatalf("getblk took %p, want the one released buffer %p", b, held[5])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("getblk still asleep after a brelse freed a victim")
	}
}

// gatedDev copies each write's buffer when the request starts, as a DMA
// engine does, and holds the first write in the device until release
// is closed.
type gatedDev struct {
	com.BlkIO
	writes           int
	started, release chan struct{}
}

func (d *gatedDev) Write(buf []byte, off uint64) (uint, error) {
	data := slices.Clone(buf)
	if d.writes++; d.writes == 1 {
		close(d.started)
		<-d.release
	}
	return d.BlkIO.Write(data, off)
}

// A write-back holds its buffer busy while the device writes it: an
// entry that changes the block meanwhile waits for the write, and its
// update is dirty again afterwards, so the next sync writes it.  A
// buffer left idle across the write would take the update and lose it
// to the writer clearing dirty.
func TestBcacheWritebackHoldsBusy(t *testing.T) {
	g := testGlue(t)
	disk := com.NewMemBuf(make([]byte, 16*BlockSize))
	dev := &gatedDev{BlkIO: disk, started: make(chan struct{}), release: make(chan struct{})}
	c := newBcache(g, new(fsLock), dev, 0)
	update := func(v byte) {
		entered(c, func() {
			b, err := c.bread(5)
			if err != nil {
				t.Error(err)
				return
			}
			b.data[0] = v
			c.bdwrite(b)
		})
	}
	sync := func() (err error) {
		entered(c, func() { err = c.sync() })
		return err
	}
	update(1)
	b := c.hash[5]
	synced, updated := make(chan error, 1), make(chan error, 1)
	go func() { synced <- sync() }()
	<-dev.started // the write of 1 is in the device, the lock is down
	go func() { update(2); updated <- nil }()
	for deadline := time.Now().Add(5 * time.Second); g.SleepersOn(b.event) == 0 && len(updated) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the update neither waited for the write nor finished")
		}
		time.Sleep(time.Millisecond)
	}
	close(dev.release)
	if err := await(t, synced, "the first sync"); err != nil {
		t.Fatal(err)
	}
	await(t, updated, "the update")
	if err := sync(); err != nil {
		t.Fatal(err)
	}
	onDisk := make([]byte, BlockSize)
	if _, err := disk.Read(onDisk, 5*BlockSize); err != nil {
		t.Fatal(err)
	}
	if onDisk[0] != 2 {
		t.Fatalf("disk block 5 holds %d after two syncs, want the later update 2 (dirty=%v)", onDisk[0], b.dirty)
	}
}
