package evalrig

import (
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"oskit/internal/com"
	"oskit/internal/dev"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/httpd"
	linuxdev "oskit/internal/linux/dev"
	netbsdfs "oskit/internal/netbsd/fs"
)

// The HTTP file-serving workload (E15): load generators GET files from
// an HTTP/1.1 static server on Nodes[0], whose bodies travel the
// sendfile path — buffer cache straight to the NIC's gather engine on a
// zero-copy configuration, the ordinary copy path everywhere else.
// Every body is CRC-verified against the seed-derived file content, so
// the workload is simultaneously a throughput measurement and an
// end-to-end integrity check of the page-pinning machinery.

// MountFS probes the donor IDE driver, formats the node's disk with the
// NetBSD-derived FFS, mounts it, and installs the root directory in the
// node's POSIX layer.  The node must have been booted with
// Options.DiskSectors.  Safe to call twice; the second call is a no-op.
func (n *Node) MountFS() error {
	if n.FS != nil {
		return nil
	}
	if n.Disk == nil {
		return fmt.Errorf("evalrig: node has no disk (boot with Options.DiskSectors)")
	}
	// A second framework instance on the same environment is fine:
	// frameworks are independent, and the IDE probe walks the machine
	// bus claiming only *hw.Disk devices (the NIC already belongs to
	// the network configuration's framework).
	fw := dev.NewFramework(n.Kernel.Env)
	linuxdev.InitIDE(fw)
	fw.Probe()
	disks := fw.LookupByIID(com.BlkIOIID)
	if len(disks) != 1 {
		return fmt.Errorf("evalrig: IDE probe found %d disks", len(disks))
	}
	raw := disks[0].(com.BlkIO)
	defer raw.Release()
	if err := netbsdfs.Mkfs(raw, 0); err != nil {
		return err
	}
	fs, err := netbsdfs.Mount(bsdglue.New(n.Kernel.Env), raw)
	if err != nil {
		return err
	}
	root, err := fs.GetRoot()
	if err != nil {
		_ = fs.Unmount()
		return err
	}
	n.FS = fs
	n.FSRoot = root
	n.C.SetRoot(root)
	return nil
}

// UnmountFS tears the mounted file system down: the POSIX root binding,
// the root directory reference, then the mount itself.  No-op when
// MountFS never ran.  Halt calls it, so the refdebug ledger comes out
// clean without rig clients doing anything.
func (n *Node) UnmountFS() {
	if n.FS == nil {
		return
	}
	n.C.SetRoot(nil)
	n.FSRoot.Release()
	_ = n.FS.Unmount()
	n.FSRoot = nil
	n.FS = nil
	n.httpPopKey = ""
}

// HTTPOptions parameterizes HTTPGet.
type HTTPOptions struct {
	Requests  int    // total GETs across all generators
	Workers   int    // concurrent workers per generator node
	Files     int    // number of /pub files served round-robin
	FileBytes int    // size of each file
	PerConn   int    // requests issued per connection before reconnecting
	Port      uint16 // server port
	Backlog   int    // server listen backlog
	Seed      int64  // seeds every file body (reproducibility)
	Probes    bool   // interleave deterministic 403/404 probe requests
}

func (o *HTTPOptions) defaults() {
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Files <= 0 {
		o.Files = 4
	}
	if o.FileBytes <= 0 {
		o.FileBytes = 8192
	}
	if o.PerConn <= 0 {
		o.PerConn = 8
	}
	if o.Port == 0 {
		o.Port = 8080
	}
	if o.Backlog <= 0 {
		o.Backlog = 128
	}
}

// HTTPResult is one HTTP workload measurement.
type HTTPResult struct {
	Requests   int     // requests answered as expected (verified body or expected probe status)
	Failed     int     // requests that errored (connect, I/O, status, or bad body)
	BytesBody  uint64  // total verified body bytes moved
	Seconds    float64 // wall time over the whole run
	ReqsPerSec float64
	P50Usec    float64 // median request→body-complete latency
	P99Usec    float64 // tail latency

	// CheckSum is the XOR, over every verified 200 body, of the body
	// CRC-32 mixed with its ticket hash — order-independent, so
	// equal-seed runs produce the same sum no matter the interleaving
	// (the hostile-wire soak pins hostile == clean), and
	// ticket-dependent, so round-robin repeats of the same file cannot
	// cancel to zero.  Probe answers do not contribute.
	CheckSum uint32

	// Errors samples the first few failures (diagnosis, not accounting).
	Errors []string
}

// httpPayload builds file i's body deterministically from the run seed.
func httpPayload(seed int64, i, n int) []byte {
	rng := rand.New(rand.NewSource(seed ^ int64(i+1)*0x9e3779b9))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// httpFile names the /pub file a request ticket resolves to.
func httpFile(ticket, files int) int { return ticket % files }

// PopulateHTTP lays the workload's file tree onto the node's mounted
// FFS through the node's own POSIX layer: /pub/f0 … /pub/f{Files-1} with
// seed-derived bodies, plus /secrets/plans for the 403 probes, then
// syncs the cache to disk.  Idempotent for one (seed, files, bytes)
// shape; every operation carries the op-level com.ErrIO retry contract
// (a directory that exists, a file rewritten whole), so a fault plan
// armed early cannot break setup.
func PopulateHTTP(n *Node, o HTTPOptions) error {
	o.defaults()
	key := fmt.Sprintf("%d/%d/%d", o.Seed, o.Files, o.FileBytes)
	if n.httpPopKey == key {
		return nil
	}
	if err := n.MountFS(); err != nil {
		return err
	}
	// try runs one idempotent file-system operation, re-attempting it
	// through transient injected disk errors; com.ErrExist means an
	// earlier attempt took effect.
	try := func(what string, op func() error) error {
		var err error
		for i := 0; i < 64; i++ {
			err = op()
			if err == nil || err == com.ErrExist {
				return nil
			}
			if err != com.ErrIO {
				break
			}
		}
		return fmt.Errorf("evalrig: %s: %w", what, err)
	}
	for _, dir := range []string{"/pub", "/secrets"} {
		if err := try("mkdir "+dir, func() error { return n.C.Mkdir(dir, 0o755) }); err != nil {
			return err
		}
	}
	write := func(path string, body []byte) error {
		return try("write "+path, func() error { return n.C.WriteFile(path, body, 0o644) })
	}
	for i := 0; i < o.Files; i++ {
		if err := write(fmt.Sprintf("/pub/f%d", i), httpPayload(o.Seed, i, o.FileBytes)); err != nil {
			return err
		}
	}
	if err := write("/secrets/plans", []byte("the secret plans\n")); err != nil {
		return err
	}
	if err := try("sync", n.FS.Sync); err != nil {
		return err
	}
	n.httpPopKey = key
	return nil
}

// HTTPGet runs the HTTP workload against Nodes[0] and reports
// throughput, tail latency, and the verification checksum.  The server
// node's file system is mounted and populated on first use (before any
// timing starts).  Requests that fail are counted, not retried.
func HTTPGet(c *Cluster, o HTTPOptions) (HTTPResult, error) {
	o.defaults()
	srv := c.Server()
	gens := c.Generators()
	if len(gens) == 0 {
		return HTTPResult{}, fmt.Errorf("evalrig: HTTP workload needs at least one generator node")
	}
	if err := PopulateHTTP(srv, o); err != nil {
		return HTTPResult{}, err
	}

	// The server: the §3.8 security wrapper in front of the FS root (an
	// unprivileged service uid, so /secrets stays 403), the HTTP server
	// atop the POSIX layer, one handler goroutine per accepted
	// connection — the same shape as the churn server.
	root := httpd.NewSecureRoot(srv.FSRoot, 1000)
	defer root.Release()
	hs := &httpd.Server{C: srv.C, Root: root}
	lfd, err := listen(srv, o.Port, o.Backlog)
	if err != nil {
		return HTTPResult{}, fmt.Errorf("evalrig: HTTP server setup: %w", err)
	}
	served := acceptLoop(srv, lfd, -1, hs.Serve)

	// Generators: each worker holds one keep-alive connection, reusing
	// it for up to PerConn requests before cycling it.
	t := &tickets{total: o.Requests, what: "req"}
	t.run(gens, o.Workers, func(g *Node) {
		conn := &httpConn{g: g, srvIP: srv.IP, port: o.Port}
		defer conn.close()
		onConn := 0
		for i, ok := t.draw(); ok; i, ok = t.draw() {
			if onConn >= o.PerConn {
				conn.close()
				onConn = 0
			}
			start := time.Now()
			crc, nbody, err := httpOne(conn, o, i)
			onConn++
			if nbody > 0 {
				crc ^= uint32(i) * 0x9e3779b9
			}
			t.record(i, start, crc, nbody, err)
			if err != nil {
				conn.close() // framing is suspect: start fresh
				onConn = 0
			}
		}
	})

	closeFD(srv, lfd)
	<-served

	res := HTTPResult{
		Requests: t.done, Failed: t.failed, BytesBody: t.bytes, Seconds: t.seconds,
		ReqsPerSec: t.rate(), CheckSum: t.checkSum, Errors: t.errors,
	}
	res.P50Usec, res.P99Usec = percentiles(t.latencies)
	return res, nil
}

// httpOne issues request ticket i on conn: normally a verified GET of
// its round-robin /pub file (returning the body CRC), with every
// eighth ticket turned into a deterministic security probe when
// Probes is on — a 403 from the wrapper or a 404 for a missing name.
func httpOne(conn *httpConn, o HTTPOptions, i int) (crc uint32, nbody int, err error) {
	if o.Probes && i%8 == 3 {
		status, _, err := conn.get("/secrets/plans")
		if err != nil {
			return 0, 0, err
		}
		if status != 403 {
			return 0, 0, fmt.Errorf("probe /secrets/plans: status %d, want 403", status)
		}
		return 0, 0, nil
	}
	if o.Probes && i%8 == 7 {
		status, _, err := conn.get("/pub/no-such-file")
		if err != nil {
			return 0, 0, err
		}
		if status != 404 {
			return 0, 0, fmt.Errorf("probe /pub/no-such-file: status %d, want 404", status)
		}
		return 0, 0, nil
	}
	fi := httpFile(i, o.Files)
	status, body, err := conn.get(fmt.Sprintf("/pub/f%d", fi))
	if err != nil {
		return 0, 0, err
	}
	if status != 200 {
		return 0, 0, fmt.Errorf("GET /pub/f%d: status %d", fi, status)
	}
	if len(body) != o.FileBytes {
		return 0, 0, fmt.Errorf("GET /pub/f%d: body %d bytes, want %d", fi, len(body), o.FileBytes)
	}
	want := crc32.ChecksumIEEE(httpPayload(o.Seed, fi, o.FileBytes))
	got := crc32.ChecksumIEEE(body)
	if got != want {
		return 0, 0, fmt.Errorf("GET /pub/f%d: body corrupted (crc %08x != %08x)", fi, got, want)
	}
	return got, len(body), nil
}

// httpConn is a generator-side HTTP/1.1 client connection: lazily
// opened, reused across keep-alive requests, carrying pipeline residue
// between responses.
type httpConn struct {
	g       *Node
	srvIP   [4]byte
	port    uint16
	fd      int
	open    bool
	pending []byte
}

func (c *httpConn) close() {
	if !c.open {
		return
	}
	closeFD(c.g, c.fd)
	c.open = false
	c.pending = nil
}

// get issues one GET and returns the response status and full body.
func (c *httpConn) get(path string) (status int, body []byte, err error) {
	if !c.open {
		fd, err := dial(c.g, c.srvIP, c.port, "", 0)
		if err != nil {
			return 0, nil, err
		}
		c.fd, c.open, c.pending = fd, true, nil
	}
	req := []byte("GET " + path + " HTTP/1.1\r\nHost: rig\r\nConnection: keep-alive\r\n\r\n")
	if err := writeAll(c.g, c.fd, req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// readResponse reads one complete response (head + Content-Length
// body), leaving any pipelined surplus in pending.
func (c *httpConn) readResponse() (status int, body []byte, err error) {
	buf := make([]byte, 4096)
	// more appends the next chunk off the wire to pending.
	more := func() error {
		n, err := c.g.C.Read(c.fd, buf)
		if err == nil && n == 0 {
			err = io.ErrUnexpectedEOF
		}
		c.pending = append(c.pending, buf[:n]...)
		return err
	}
	end := httpHeadEnd(c.pending)
	for end < 0 {
		if err := more(); err != nil {
			return 0, nil, fmt.Errorf("evalrig: response head truncated (%v)", err)
		}
		end = httpHeadEnd(c.pending)
	}
	head := string(c.pending[:end])
	c.pending = append([]byte(nil), c.pending[end:]...)

	status, clen, err := httpParseHead(head)
	if err != nil {
		return 0, nil, err
	}
	for len(c.pending) < clen {
		if err := more(); err != nil {
			return 0, nil, fmt.Errorf("evalrig: response body truncated at %d of %d bytes (%v)", len(c.pending), clen, err)
		}
	}
	body = c.pending[:clen]
	c.pending = append([]byte(nil), c.pending[clen:]...)
	return status, body, nil
}

// httpParseHead extracts the status code and Content-Length from a
// response head (the client trusts its own server this far).
func httpParseHead(head string) (status, clen int, err error) {
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return 0, 0, fmt.Errorf("evalrig: bad status line %q", lines[0])
	}
	status, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("evalrig: bad status in %q", lines[0])
	}
	for _, l := range lines[1:] {
		k, v, ok := strings.Cut(l, ":")
		if !ok {
			continue
		}
		if strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
			clen, err = strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return 0, 0, fmt.Errorf("evalrig: bad Content-Length %q", v)
			}
		}
	}
	return status, clen, nil
}

// httpHeadEnd locates the blank line ending a response head, returning
// the index just past it, or -1 while incomplete.
func httpHeadEnd(b []byte) int {
	for i := 3; i < len(b); i++ {
		if b[i] == '\n' && b[i-1] == '\r' && b[i-2] == '\n' && b[i-3] == '\r' {
			return i + 1
		}
	}
	return -1
}
