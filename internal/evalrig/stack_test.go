package evalrig

// The kernel-stack budget: every process-level socket call on the stock
// OSKit path, measured from the libc call down to the receiving NIC,
// fits in 2 KiB of goroutine stack.  The simulated switch and the
// peer's NIC run on the sender's thread, so whatever the wire costs is
// charged to every caller of the kit; a connection's thread (one per
// connection in churn_conn) that stays under the budget grows its stack
// once instead of twice.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"oskit/internal/hw"
)

// stackBudget is the most stack, in bytes, a socket call may use from
// its caller's frame to the receiving NIC.
const stackBudget = 2048

// stackProbe measures how deep below a caller's frame a thread reaches
// when the receiving NIC's fault hook runs on it.  The measuring thread
// pre-grows its stack and the garbage collector is off, so the stack
// neither moves nor shrinks between the two address reads.
type stackProbe struct {
	goid  atomic.Uint64
	base  atomic.Uintptr
	depth atomic.Uintptr // deepest hook seen since the last measure
}

// observe runs inside the receiving NIC's fault hook and records the
// depth when that is the measuring thread.
func (p *stackProbe) observe() {
	var here byte
	if p.goid.Load() == hw.GoID() {
		d := p.base.Load() - uintptr(unsafe.Pointer(&here))
		if d > p.depth.Load() {
			p.depth.Store(d)
		}
	}
}

// measure runs call on the current thread and returns the deepest hook
// depth it reached, 0 when no frame it sent reached a NIC on this thread.
//
//go:noinline
func (p *stackProbe) measure(t *testing.T, call func()) uintptr {
	var base byte
	at := uintptr(unsafe.Pointer(&base))
	p.goid.Store(hw.GoID())
	p.base.Store(at)
	p.depth.Store(0)
	call()
	p.goid.Store(0)
	if uintptr(unsafe.Pointer(&base)) != at {
		t.Error("the goroutine stack moved during a measured call")
	}
	return p.depth.Load()
}

// growStack leaves the calling goroutine with a stack of at least 64 KiB.
//
//go:noinline
func growStack(n int) byte {
	var pad [1024]byte
	pad[n%len(pad)] = byte(n)
	if n > 0 {
		return growStack(n-1) + pad[(n*7)%len(pad)]
	}
	return pad[0]
}

// stackDepths keeps the deepest measurement per entry point.
type stackDepths struct {
	mu sync.Mutex
	m  map[string]uintptr
}

func (d *stackDepths) note(name string, v uintptr) {
	d.mu.Lock()
	d.m[name] = max(d.m[name], v)
	d.mu.Unlock()
}

// probeNICs installs a receive hook on every node's NIC that feeds each
// probe and never drops the frame.
func probeNICs(nodes []*Node, probes ...*stackProbe) {
	for _, n := range nodes {
		n.NIC().SetRxFaultHook(func() bool {
			for _, p := range probes {
				p.observe()
			}
			return false
		})
	}
}

// TestSocketCallStackBudget: a few churn_conn operations on the stock
// 3-node cluster, with each libc entry point's stack depth measured to
// the receiving NIC's hook, which NIC.deliver calls on the sender's
// thread.  Accept sends nothing on the accepting thread (the handshake
// ran on the interrupt thread), so it reads 0, and is gated all the
// same.  The fast path's Sendfile depth is logged, not gated.  Run it
// with -v to see every depth.
func TestSocketCallStackBudget(t *testing.T) {
	skipUnderRace(t)
	if runtime.GOARCH != "amd64" {
		t.Skip("frame sizes are pinned on amd64")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	c, err := NewCluster(OSKit, 3, 250*time.Microsecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	var cli, srvp stackProbe
	probeNICs(c.Nodes, &cli, &srvp)
	srv, g := c.Server(), c.Generators()[0]
	lfd, err := listen(srv, 7304, 8)
	if err != nil {
		t.Fatal(err)
	}
	depths := stackDepths{m: map[string]uintptr{}}
	const conns = 4
	served := make(chan error, 1)
	go func() {
		growStack(64)
		var err error
		for range conns {
			var fd int
			depths.note("server Accept", srvp.measure(t, func() { fd, _, err = srv.C.Accept(lfd) }))
			if err != nil {
				break
			}
			var b [64]byte
			if err = readFull(srv, fd, b[:]); err != nil {
				break
			}
			depths.note("server Write", srvp.measure(t, func() { _, err = srv.C.Write(fd, b[:]) }))
			depths.note("server Close", srvp.measure(t, func() { closeFD(srv, fd) }))
			if err != nil {
				break
			}
		}
		served <- err
	}()
	clientErr := make(chan error, 1)
	go func() {
		growStack(64)
		clientErr <- func() error {
			var req, echo [64]byte
			for range conns {
				fd, err := g.C.Socket(2, 1, 0)
				if err != nil {
					return err
				}
				depths.note("client Connect", cli.measure(t, func() { err = g.C.Connect(fd, Addr(srv.IP, 7304)) }))
				if err != nil {
					return err
				}
				depths.note("client Write", cli.measure(t, func() { _, err = g.C.Write(fd, req[:]) }))
				if err == nil {
					err = readFull(g, fd, echo[:])
				}
				var eof [1]byte
				if err == nil {
					_, err = g.C.Read(fd, eof[:])
				}
				depths.note("client Close", cli.measure(t, func() { closeFD(g, fd) }))
				if err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	closeFD(srv, lfd)

	var line []string
	for _, name := range []string{"client Connect", "client Write", "client Close", "server Accept", "server Write", "server Close"} {
		d := depths.m[name]
		line = append(line, fmt.Sprintf("%s=%d", strings.ReplaceAll(name, " ", "."), d))
		if d > stackBudget {
			t.Errorf("%s uses %d B of stack down to the receiving NIC, budget %d B", name, d, stackBudget)
		}
	}
	line = append(line, fmt.Sprintf("fastpath.Sendfile=%d", sendfileDepth(t)))
	t.Logf("stack depths (B, budget %d): %s", stackBudget, strings.Join(line, " "))
}

// sendfileDepth serves one 16 KiB file by Sendfile from a fast-path
// cluster and returns the measured depth of the Sendfile call.
func sendfileDepth(t *testing.T) uintptr {
	c, err := NewCluster(OSKit, 3, time.Millisecond, Options{FastPath: true, DiskSectors: 65536})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	const size = 16 << 10
	srv, g := c.Server(), c.Generators()[0]
	if err := PopulateHTTP(srv, HTTPOptions{Files: 1, FileBytes: size, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	var probe stackProbe
	probeNICs(c.Nodes, &probe)
	lfd, err := listen(srv, 7305, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFD(srv, lfd)
	var depth uintptr
	served := make(chan error, 1)
	go func() {
		growStack(64)
		fd, _, err := srv.C.Accept(lfd)
		if err != nil {
			served <- err
			return
		}
		defer closeFD(srv, fd)
		ffd, err := srv.C.Open("/pub/f0", 0, 0)
		if err != nil {
			served <- err
			return
		}
		defer closeFD(srv, ffd)
		depth = probe.measure(t, func() { _, err = srv.C.Sendfile(fd, ffd, 0, size) })
		served <- err
	}()
	fd, err := dial(g, srv.IP, 7305, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFD(g, fd)
	if err := readFull(g, fd, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	return depth
}
