package evalrig

// Steady-state allocation pins: what one operation of each bench
// workload's shape costs the Go heap, counted process-wide (so the
// server's side counts too) by testing.AllocsPerRun.  The packet path
// recycles every header it builds (mbufs, skbuffs, kmalloc descriptors,
// BSD procs, ring buffers, disk requests, sendfile pins), so what is
// left is per-connection state and the HTTP server's own parsing.
// Skipped under -race, whose instrumentation allocates.

import (
	"bytes"
	"testing"
	"time"

	"oskit/internal/httpd"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
}

// connectedPair boots a stock OSKit pair and returns a connected TCP
// descriptor on each side, with nodelay set on the sender.
func connectedPair(t *testing.T, port uint16) (p *Pair, sfd, rfd int) {
	t.Helper()
	p, err := NewPair(OSKit, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Halt)
	lfd, err := listen(p.Receiver, port, 1)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan error, 1)
	go func() {
		var err error
		rfd, _, err = p.Receiver.C.Accept(lfd)
		accepted <- err
	}()
	if sfd, err = dial(p.Sender, p.Receiver.IP, port, "nodelay", 1); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return p, sfd, rfd
}

// TestRTCPRoundTripAllocs: one 1-byte round trip on the stock path.
func TestRTCPRoundTripAllocs(t *testing.T) {
	skipUnderRace(t)
	p, sfd, rfd := connectedPair(t, 7301)
	stop := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		var b [1]byte
		for {
			if readFull(p.Receiver, rfd, b[:]) != nil {
				return
			}
			select {
			case <-stop:
				return
			default:
			}
			if writeAll(p.Receiver, rfd, b[:]) != nil {
				return
			}
		}
	}()
	var b [1]byte
	rt := func() {
		if err := writeAll(p.Sender, sfd, b[:]); err != nil {
			t.Fatal(err)
		}
		if err := readFull(p.Sender, sfd, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, rt)
	t.Logf("%v allocations per round trip", n)
	close(stop)
	_ = writeAll(p.Sender, sfd, b[:])
	<-echoed
	if n > 4 {
		t.Fatalf("a stock rtcp round trip allocates %v times, want at most 4", n)
	}
}

// TestTTCPWriteAllocs: one 4 KiB write and its read on the stock path.
func TestTTCPWriteAllocs(t *testing.T) {
	skipUnderRace(t)
	p, sfd, rfd := connectedPair(t, 7302)
	out, in := make([]byte, 4096), make([]byte, 4096)
	for i := range out {
		out[i] = byte(i * 7)
	}
	step := func() {
		if err := writeAll(p.Sender, sfd, out); err != nil {
			t.Fatal(err)
		}
		if err := readFull(p.Receiver, rfd, in); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, step)
	t.Logf("%v allocations per write+read", n)
	if n > 8 {
		t.Fatalf("a stock 4 KiB ttcp write+read allocates %v times, want at most 8", n)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("stream corrupted")
	}
}

// TestHTTPGetAllocs: one keep-alive GET of a 64 KiB file from a
// fast-path server, cycling over eight files the way http_file does.
func TestHTTPGetAllocs(t *testing.T) {
	skipUnderRace(t)
	c, err := NewCluster(OSKit, 3, time.Millisecond, Options{FastPath: true, DiskSectors: 65536})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	const files, size = 8, 64 << 10
	srv, g := c.Server(), c.Generators()[0]
	if err := PopulateHTTP(srv, HTTPOptions{Files: files, FileBytes: size, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	root := httpd.NewSecureRoot(srv.FSRoot, 1000)
	defer srv.Do(root.Release)
	hs := &httpd.Server{C: srv.C, Root: root, Do: srv.Do}
	lfd, err := listen(srv, 8080, 4)
	if err != nil {
		t.Fatal(err)
	}
	served := acceptLoop(srv, lfd, 1, hs.Serve)
	fd, err := dial(g, srv.IP, 8080, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var reqs [files][]byte
	for i := range reqs {
		reqs[i] = []byte("GET /pub/f" + string(rune('0'+i)) + " HTTP/1.1\r\nHost: rig\r\nConnection: keep-alive\r\n\r\n")
	}
	buf := make([]byte, size+4096)
	i := 0
	get := func() {
		if err := writeAll(g, fd, reqs[i%files]); err != nil {
			t.Fatal(err)
		}
		i++
		have, want := 0, -1
		for want < 0 || have < want {
			var k int
			g.Do(func() { k, err = g.C.Read(fd, buf[have:]) })
			if err != nil || k == 0 {
				t.Fatalf("response truncated at %d bytes (%v)", have, err)
			}
			have += k
			if want < 0 {
				if end := bytes.Index(buf[:have], []byte("\r\n\r\n")); end >= 0 {
					want = end + 4 + size
				}
			}
		}
		if have != want || !bytes.HasPrefix(buf, []byte("HTTP/1.1 200")) {
			t.Fatalf("response of %d bytes, want %d: %q", have, want, buf[:min(have, 40)])
		}
	}
	n := testing.AllocsPerRun(64, get)
	t.Logf("%v allocations per GET", n)
	if n > 24 {
		t.Fatalf("a fast-path 64 KiB GET allocates %v times, want at most 24", n)
	}
	closeFD(g, fd)
	<-served
	closeFD(srv, lfd)
}

// TestChurnConnAllocs: one churn_conn operation — connect, 64-byte
// echo, server closes first, client closes — on a stock 3-node cluster.
func TestChurnConnAllocs(t *testing.T) {
	skipUnderRace(t)
	c, err := NewCluster(OSKit, 3, 250*time.Microsecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	srv, g := c.Server(), c.Generators()[0]
	lfd, err := listen(srv, 7303, 128)
	if err != nil {
		t.Fatal(err)
	}
	served := acceptLoop(srv, lfd, -1, func(fd int) {
		var b [64]byte
		if readFull(srv, fd, b[:]) == nil {
			_ = writeAll(srv, fd, b[:])
		}
		closeFD(srv, fd)
	})
	var req, echo [64]byte
	for i := range req {
		req[i] = byte(i)
	}
	op := func() {
		fd, err := dial(g, srv.IP, 7303, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeAll(g, fd, req[:]); err != nil {
			t.Fatal(err)
		}
		if err := readFull(g, fd, echo[:]); err != nil {
			t.Fatal(err)
		}
		var eof [1]byte
		var k int
		g.Do(func() { k, err = g.C.Read(fd, eof[:]) })
		if err != nil || k != 0 {
			t.Fatalf("expected the server's close, read %d bytes (%v)", k, err)
		}
		closeFD(g, fd)
	}
	n := testing.AllocsPerRun(200, op)
	t.Logf("%v allocations per connection", n)
	closeFD(srv, lfd)
	<-served
	if n > 18 {
		t.Fatalf("a churn connect/echo/close allocates %v times, want at most 18", n)
	}
}
