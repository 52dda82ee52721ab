package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"time"
)

// The four workloads.  All are closed loops driven only through the
// kit's application surface (rig.go's sock and file calls); every byte
// that comes back is checked against what the seed says it must be.

// workloadDef names a workload, says why it is here, and boots it.
type workloadDef struct {
	name string
	why  string
	// primary is the end-to-end metric this workload exists to move.
	primary string
	// unitOps is the fixed number of operations in a timed unit.
	unitOps int
	// setup boots the rig, listens and connects.  ref boots the
	// all-FreeBSD baseline instead (pair workloads only).
	setup func(seed int64, ref bool) (instance, error)
	// hasRef says the workload has a reference lap (Tables 1 and 2).
	hasRef bool
}

var workloads = []workloadDef{
	{
		name:    "ttcp_bulk",
		why:     "Table 1: one connection, 4 KiB writes of a seeded stream; per-byte costs (flatten copy, software checksum, sockbuf, clusters) dominate, connection lifecycle and the file system do nothing",
		primary: "goodput_mbps",
		unitOps: bulkUnitOps,
		setup:   setupBulk,
		hasRef:  true,
	},
	{
		name:    "rtcp_pingpong",
		why:     "Table 2: 1-byte round trips with nodelay; per-packet fixed cost, sleep/wakeup and interrupt dispatch do all the work and bytes do none, so a copy or checksum change must show nothing here",
		primary: "lat_p50_us",
		unitOps: pingUnitOps,
		setup:   setupPingPong,
		hasRef:  true,
	},
	{
		name:    "churn_conn",
		why:     "3-node cluster, connect/64-byte echo/server-closes-first; exercises what the pair workloads bypass: pcb allocation, hashed demux, listen queues, ephemeral ports, TIME_WAIT recycling, slow timers, ARP",
		primary: "ops_per_s",
		unitOps: churnUnitOps,
		setup:   setupChurn,
	},
	{
		name:    "http_file",
		why:     "3-node fast-path cluster serving 8 seeded 64 KiB files over keep-alive HTTP; the only path through netbsd_fs, IDE and httpd, all bcache misses; sendfile ext-mbufs, gather tx, csum offload, polled rx",
		primary: "goodput_mbps",
		unitOps: httpUnitOps,
		setup:   setupHTTP,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// unitStat is what one unit measured.
type unitStat struct {
	dur    time.Duration
	ops    int       // operations that completed and verified
	failed int       // operations that errored or mis-verified
	bytes  int64     // verified payload bytes the generators received or sent
	lat    []float64 // per-operation latency in µs, one per verified op
	latMid float64   // the unit's latency value when it is not the median of lat
	sum    uint32    // XOR of the verified operations' checksums
	dead   error     // set when the instance cannot run another unit
}

// instance is one booted, connected workload.
type instance interface {
	// unit runs the next ops operations.  Timed units are always the
	// workload's fixed unitOps; set-up runs a single first operation.
	unit(u *unitStat, ops int)
	// finish ends the streams and checks whole-run totals: sum is the
	// stream's contribution to the run checksum, failed the operations
	// the final check found bad.
	finish() (sum uint32, failed int, err error)
	halt()
	testbed() *rig
}

// Unit sizes are part of the benchmark's definition: the same on every
// commit.
const (
	bulkWrite     = 4096
	bulkUnitOps   = 256 // 1 MiB
	pingUnitOps   = 250
	churnUnitOps  = 128
	churnReqBytes = 64
	httpUnitOps   = 32 // 2 MiB
	httpFiles     = 8
	httpFileBytes = 64 << 10
	httpPerConn   = 8

	// Set-up ends with firstOps verified operations (ARP, handshake, lazy
	// initialisation); warmUnits more run untimed before the timed phase
	// (slow start, caches).  sumUnits is how many timed units the run
	// checksum covers: a run is only a measurement with at least that
	// many, so equal seeds checksum equal work however fast the host was.
	firstOps  = 1
	warmUnits = 2
	sumUnits  = 60
)

// --- seeded inputs.  The seed derives every payload and file body and
// never any product setting.

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fillSeeded fills b with the stream'th byte sequence of the seed.
func fillSeeded(b []byte, seed int64, stream uint64) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(w[:], splitmix64(&x))
		copy(b[i:], w[:])
	}
}

func seededBytes(seed int64, stream uint64, n int) []byte {
	b := make([]byte, n)
	fillSeeded(b, seed, stream)
	return b
}

// opSum is one operation's contribution to the run checksum: the CRC
// of the payload that came back, mixed with its ticket.  XOR of these
// is order-independent; the multiplicative mix is there because CRC is
// linear, so without it round-robin repeats of one payload cancel.
func opSum(ticket int64, crc uint32) uint32 {
	h := crc ^ uint32(ticket)*0x9e3779b9 ^ uint32(ticket>>32)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	return h ^ h>>16
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

func writeAll(s sock, b []byte) error {
	for len(b) > 0 {
		k, err := s.write(b)
		if err != nil {
			return err
		}
		b = b[k:]
	}
	return nil
}

// readFull reads exactly len(b) bytes; a clean EOF before that is an error.
func readFull(s sock, b []byte) error {
	for got := 0; got < len(b); {
		k, err := s.read(b[got:])
		if err != nil {
			return err
		}
		if k == 0 {
			return fmt.Errorf("stream ended at %d of %d bytes", got, len(b))
		}
		got += k
	}
	return nil
}

// listenOn opens the workload's listening socket on n.
func listenOn(n *node, port uint16, backlog int, reuse bool) (sock, error) {
	l, err := n.socket(0, -1)
	if err != nil {
		return l, err
	}
	if reuse {
		err = l.setopt("reuseaddr", 1)
	}
	if err == nil {
		err = l.bindListen(port, backlog)
	}
	if err != nil {
		_ = l.close()
	}
	return l, err
}

// onRig is the part every instance shares: the testbed it runs on.
type onRig struct{ r *rig }

func (o onRig) halt()         { o.r.halt() }
func (o onRig) testbed() *rig { return o.r }

// --- ttcp_bulk.

const bulkPort = 5001

// bulkPatternLen is the seeded pattern the stream is cut from; writes
// step through it by a stride coprime to its length, so the stream only
// repeats after the whole pattern has been sent at every offset.
const (
	bulkPatternLen = 1 << 20
	bulkStride     = 4099
	// bulkMark is the stream offset the run checksum is taken at.
	bulkMark = int64(firstOps+(warmUnits+sumUnits)*bulkUnitOps) * bulkWrite
)

type bulkRecv struct {
	total   int64
	crc     uint32
	markCRC uint32
	err     error
}

type bulk struct {
	onRig
	conn     sock
	pattern  []byte
	off      int
	sent     int64
	crc      uint32
	markCRC  uint32
	recvDone chan bulkRecv
}

func setupBulk(seed int64, ref bool) (instance, error) {
	r, err := bootPair(ref, time.Millisecond)
	if err != nil {
		return nil, err
	}
	b := &bulk{onRig: onRig{r}, pattern: seededBytes(seed, 1, bulkPatternLen+bulkWrite), recvDone: make(chan bulkRecv, 1)}
	l, err := listenOn(r.nodes[0], bulkPort, 1, false)
	if err != nil {
		r.halt()
		return nil, err
	}
	go b.receive(l)
	c, err := r.nodes[1].socket(0, -1)
	if err == nil {
		// Real ttcp raises the socket buffers (-b); a deep pipe keeps the
		// sender from blocking on every ACK round trip.
		_ = c.setopt("sndbuf", 32*1024)
		err = c.connect(r.nodes[0].ip(), bulkPort)
	}
	if err != nil {
		_ = l.close()
		<-b.recvDone
		r.halt()
		return nil, fmt.Errorf("ttcp_bulk connect: %w", err)
	}
	b.conn = c
	return b, nil
}

// receive accepts the one connection and CRCs the stream to EOF.
func (b *bulk) receive(l sock) {
	var out bulkRecv
	defer func() { b.recvDone <- out }()
	c, err := l.accept()
	_ = l.close()
	if err != nil {
		out.err = err
		return
	}
	defer func() { _ = c.close() }()
	_ = c.setopt("rcvbuf", 32*1024)
	buf := make([]byte, bulkWrite)
	for {
		k, err := c.read(buf)
		if err != nil {
			out.err = err
			return
		}
		if k == 0 {
			return
		}
		if out.total < bulkMark && out.total+int64(k) >= bulkMark {
			cut := int(bulkMark - out.total)
			out.crc = crc32.Update(out.crc, crc32.IEEETable, buf[:cut])
			out.markCRC = out.crc
			out.crc = crc32.Update(out.crc, crc32.IEEETable, buf[cut:k])
		} else {
			out.crc = crc32.Update(out.crc, crc32.IEEETable, buf[:k])
		}
		out.total += int64(k)
	}
}

func (b *bulk) unit(u *unitStat, ops int) {
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		blk := b.pattern[b.off : b.off+bulkWrite]
		b.off = (b.off + bulkStride) % bulkPatternLen
		w0 := time.Now()
		if err := writeAll(b.conn, blk); err != nil {
			u.failed++
			u.dead = fmt.Errorf("ttcp_bulk write: %w", err)
			break
		}
		u.lat = append(u.lat, usSince(w0))
		b.crc = crc32.Update(b.crc, crc32.IEEETable, blk)
		b.sent += bulkWrite
		if b.sent == bulkMark {
			b.markCRC = b.crc
		}
		u.ops++
		u.bytes += bulkWrite
	}
	u.dur = time.Since(t0)
	// A single write is bimodal — it either fits the send buffer or
	// blocks for an ACK — so the median of a unit's writes flips between
	// the two modes; the unit's mean write time is the steady value.
	if u.ops > 0 {
		u.latMid = float64(u.dur.Nanoseconds()) / 1e3 / float64(u.ops)
	}
}

func (b *bulk) finish() (uint32, int, error) {
	err := b.conn.shutdownWrite()
	got := <-b.recvDone
	_ = b.conn.close()
	if err == nil {
		err = got.err
	}
	if err == nil && (got.total != b.sent || got.crc != b.crc || got.markCRC != b.markCRC) {
		err = fmt.Errorf("ttcp_bulk: receiver saw %d bytes crc %08x mark %08x, sender %d bytes crc %08x mark %08x",
			got.total, got.crc, got.markCRC, b.sent, b.crc, b.markCRC)
	}
	if err != nil {
		// The stream is one unit of trust: nothing sent is verified.
		return 0, int(b.sent / bulkWrite), err
	}
	if b.sent >= bulkMark {
		return got.markCRC, 0, nil
	}
	return got.crc, 0, nil
}

// --- rtcp_pingpong.

const pingPort = 5002

type pingPong struct {
	onRig
	conn     sock
	seed     int64
	next     int64
	echoDone chan error
}

func setupPingPong(seed int64, ref bool) (instance, error) {
	r, err := bootPair(ref, time.Millisecond)
	if err != nil {
		return nil, err
	}
	p := &pingPong{onRig: onRig{r}, seed: seed, echoDone: make(chan error, 1)}
	l, err := listenOn(r.nodes[0], pingPort, 1, false)
	if err != nil {
		r.halt()
		return nil, err
	}
	go p.echo(l)
	c, err := r.nodes[1].socket(0, -1)
	if err == nil {
		err = c.setopt("nodelay", 1)
	}
	if err == nil {
		err = c.connect(r.nodes[0].ip(), pingPort)
	}
	if err != nil {
		_ = l.close()
		<-p.echoDone
		r.halt()
		return nil, fmt.Errorf("rtcp_pingpong connect: %w", err)
	}
	p.conn = c
	return p, nil
}

func (p *pingPong) echo(l sock) {
	c, err := l.accept()
	_ = l.close()
	if err != nil {
		p.echoDone <- err
		return
	}
	defer func() { _ = c.close() }()
	var b [1]byte
	for {
		k, err := c.read(b[:])
		if err != nil || k == 0 {
			p.echoDone <- err
			return
		}
		if _, err := c.write(b[:]); err != nil {
			p.echoDone <- err
			return
		}
	}
}

// pingByte is round trip t's payload.
func pingByte(seed int64, t int64) byte {
	x := uint64(seed) ^ uint64(t)*0x9e3779b97f4a7c15
	return byte(splitmix64(&x))
}

func (p *pingPong) unit(u *unitStat, ops int) {
	var out, in [1]byte
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		t := p.next
		p.next++
		out[0] = pingByte(p.seed, t)
		p.conn.op = t
		p.conn.parent = tr.begin("op", t, -1)
		w0 := time.Now()
		_, err := p.conn.write(out[:])
		if err == nil {
			err = readFull(p.conn, in[:])
		}
		lat := usSince(w0)
		tr.end(p.conn.parent)
		if err != nil {
			u.failed++
			u.dead = fmt.Errorf("rtcp_pingpong round %d: %w", t, err)
			break
		}
		if in[0] != out[0] {
			u.failed++
			continue
		}
		u.lat = append(u.lat, lat)
		u.sum ^= opSum(t, crc32.ChecksumIEEE(in[:]))
		u.ops++
		u.bytes++
	}
	u.dur = time.Since(t0)
}

func (p *pingPong) finish() (uint32, int, error) {
	err := p.conn.shutdownWrite()
	if eerr := <-p.echoDone; err == nil {
		err = eerr
	}
	_ = p.conn.close()
	return 0, 0, err
}

// --- the cluster workloads share a server accept loop and a ticket
// window that the generators' workers drain.

type cluster struct {
	onRig
	srv  *node
	gens []*node
	l    sock

	acceptDone chan struct{}
	handlers   sync.WaitGroup

	mu        sync.Mutex
	next, end int64
}

// serveLoop accepts until the listener closes, one handler goroutine
// per connection.
func (c *cluster) serveLoop(handle func(sock)) {
	c.acceptDone = make(chan struct{})
	go func() {
		defer close(c.acceptDone)
		for {
			conn, err := c.l.accept()
			if err != nil {
				return // listener closed: run over
			}
			c.handlers.Add(1)
			go func() {
				defer c.handlers.Done()
				handle(conn)
			}()
		}
	}()
}

func (c *cluster) stopServing() {
	_ = c.l.close()
	<-c.acceptDone
	c.handlers.Wait()
}

// take hands out the next ticket of the current unit.
func (c *cluster) take() (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= c.end {
		return 0, false
	}
	t := c.next
	c.next++
	return t, true
}

// runUnit opens a window of n tickets and runs one worker per generator
// until it is drained; each worker reports into its own unitStat and
// the results are merged into u.
func (c *cluster) runUnit(n int, u *unitStat, parts []unitStat, work func(w int, t int64, part *unitStat)) {
	c.mu.Lock()
	c.end = c.next + int64(n)
	c.mu.Unlock()
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range c.gens {
		parts[w] = unitStat{lat: parts[w].lat[:0]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := c.take()
				if !ok {
					return
				}
				work(w, t, &parts[w])
			}
		}()
	}
	wg.Wait()
	u.dur = time.Since(t0)
	for w := range parts {
		u.ops += parts[w].ops
		u.failed += parts[w].failed
		u.bytes += parts[w].bytes
		u.sum ^= parts[w].sum
		u.lat = append(u.lat, parts[w].lat...)
	}
}

// --- churn_conn.

const churnPort = 9000

type churn struct {
	cluster
	seed  int64
	parts []unitStat
	bufs  [][2][]byte // per worker: request, echo
}

func setupChurn(seed int64, _ bool) (instance, error) {
	r, err := bootCluster(3, 250*time.Microsecond, false)
	if err != nil {
		return nil, err
	}
	c := &churn{seed: seed}
	c.r, c.srv, c.gens = r, r.nodes[0], r.nodes[1:]
	c.parts = make([]unitStat, len(c.gens))
	for range c.gens {
		c.bufs = append(c.bufs, [2][]byte{make([]byte, churnReqBytes), make([]byte, churnReqBytes)})
	}
	if c.l, err = listenOn(c.srv, churnPort, 128, false); err != nil {
		r.halt()
		return nil, err
	}
	// The server closes first, so TIME_WAIT accumulates server-side —
	// that is the lifecycle stress under test.
	c.serveLoop(func(conn sock) {
		var buf [churnReqBytes]byte
		if readFull(conn, buf[:]) == nil {
			_ = writeAll(conn, buf[:])
		}
		_ = conn.close()
	})
	return c, nil
}

func (c *churn) unit(u *unitStat, ops int) {
	c.runUnit(ops, u, c.parts, func(w int, t int64, part *unitStat) {
		req, echo := c.bufs[w][0], c.bufs[w][1]
		fillSeeded(req, c.seed, uint64(t)+(1<<32))
		lat, err := churnOne(c.gens[w], c.srv.ip(), t, req, echo)
		if err != nil {
			part.failed++
			return
		}
		part.ops++
		part.bytes += churnReqBytes
		part.sum ^= opSum(t, crc32.ChecksumIEEE(echo))
		part.lat = append(part.lat, lat)
	})
}

// churnOne is one connection: connect, request, verified echo, then
// wait for the server's close before closing.
func churnOne(g *node, srv [4]byte, t int64, req, echo []byte) (float64, error) {
	parent := tr.begin("op", t, -1)
	defer tr.end(parent)
	t0 := time.Now()
	s, err := g.socket(t, parent)
	if err != nil {
		return 0, err
	}
	defer func() { _ = s.close() }()
	if err := s.connect(srv, churnPort); err != nil {
		return 0, err
	}
	if err := writeAll(s, req); err != nil {
		return 0, err
	}
	if err := readFull(s, echo); err != nil {
		return 0, err
	}
	if !bytes.Equal(req, echo) {
		return 0, errors.New("echo differs from request")
	}
	lat := usSince(t0)
	var eof [1]byte
	if k, err := s.read(eof[:]); err != nil || k != 0 {
		return 0, fmt.Errorf("expected the server's close, read %d bytes (%v)", k, err)
	}
	return lat, nil
}

func (c *churn) finish() (uint32, int, error) {
	c.stopServing()
	return 0, 0, nil
}

// --- http_file.

const httpPort = 8080

type httpFile struct {
	cluster
	release func()
	fileCRC [httpFiles]uint32
	reqs    [httpFiles][]byte
	parts   []unitStat
	conns   []httpConn
}

// httpConn is one generator worker's keep-alive connection.
type httpConn struct {
	s      sock
	open   bool
	onConn int
	buf    []byte
}

func httpRequest(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: rig\r\nConnection: keep-alive\r\n\r\n"
}

func setupHTTP(seed int64, _ bool) (instance, error) {
	r, err := bootCluster(3, time.Millisecond, true)
	if err != nil {
		return nil, err
	}
	h := &httpFile{}
	h.r, h.srv, h.gens = r, r.nodes[0], r.nodes[1:]
	h.parts = make([]unitStat, len(h.gens))
	for range h.gens {
		h.conns = append(h.conns, httpConn{buf: make([]byte, httpFileBytes+4096)})
	}
	fail := func(err error) (instance, error) {
		r.halt()
		return nil, fmt.Errorf("http_file set-up: %w", err)
	}
	if err := h.srv.mountFS(); err != nil {
		return fail(err)
	}
	// The populate step is the file system's write side; it is part of
	// this workload's setup_s.
	sp := tr.begin("evalrig.populate", 0, -1)
	err = h.srv.mkdir("/pub")
	body := make([]byte, httpFileBytes)
	for i := 0; i < httpFiles && err == nil; i++ {
		path := "/pub/f" + strconv.Itoa(i)
		fillSeeded(body, seed, uint64(i)+(2<<32))
		h.fileCRC[i] = crc32.ChecksumIEEE(body)
		h.reqs[i] = []byte(httpRequest(path))
		err = h.srv.writeFile(path, body)
	}
	if err == nil {
		err = h.srv.syncFS()
	}
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	serve, release := h.srv.httpServer()
	h.release = release
	if h.l, err = listenOn(h.srv, httpPort, 128, true); err != nil {
		release()
		return fail(err)
	}
	h.serveLoop(serve)
	return h, nil
}

func (h *httpFile) unit(u *unitStat, ops int) {
	h.runUnit(ops, u, h.parts, func(w int, t int64, part *unitStat) {
		fi := int(t % httpFiles)
		lat, crc, err := h.conns[w].get(h.gens[w], h.srv.ip(), t, h.reqs[fi])
		if err == nil && crc != h.fileCRC[fi] {
			err = errors.New("body differs from the seeded file")
		}
		if err != nil {
			part.failed++
			h.conns[w].drop() // framing is suspect: start fresh
			return
		}
		part.ops++
		part.bytes += httpFileBytes
		part.sum ^= opSum(t, crc)
		part.lat = append(part.lat, lat)
	})
}

func (c *httpConn) drop() {
	if c.open {
		_ = c.s.close()
		c.open = false
	}
}

// get issues one GET on the worker's connection and returns the
// request→verified-body latency and the body's CRC.
func (c *httpConn) get(g *node, srv [4]byte, t int64, req []byte) (float64, uint32, error) {
	parent := tr.begin("op", t, -1)
	defer tr.end(parent)
	if c.open && c.onConn >= httpPerConn {
		c.drop()
	}
	t0 := time.Now()
	if !c.open {
		s, err := g.socket(t, parent)
		if err != nil {
			return 0, 0, err
		}
		if err := s.connect(srv, httpPort); err != nil {
			_ = s.close()
			return 0, 0, err
		}
		c.s, c.open, c.onConn = s, true, 0
	}
	c.s.op, c.s.parent = t, parent
	c.onConn++
	if err := writeAll(c.s, req); err != nil {
		return 0, 0, err
	}
	have, headEnd, clen := 0, -1, 0
	for headEnd < 0 || have < headEnd+clen {
		if have == len(c.buf) {
			return 0, 0, errors.New("response larger than the file it names")
		}
		k, err := c.s.read(c.buf[have:])
		if err != nil {
			return 0, 0, err
		}
		if k == 0 {
			return 0, 0, fmt.Errorf("response truncated at %d bytes", have)
		}
		have += k
		if headEnd < 0 {
			if i := bytes.Index(c.buf[:have], []byte("\r\n\r\n")); i >= 0 {
				headEnd = i + 4
				var err error
				if clen, err = httpHead(c.buf[:headEnd]); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	if clen != httpFileBytes || have != headEnd+clen {
		return 0, 0, fmt.Errorf("body of %d bytes (%d read past the head), want %d", clen, have-headEnd, httpFileBytes)
	}
	crc := crc32.ChecksumIEEE(c.buf[headEnd:have])
	return usSince(t0), crc, nil
}

// httpHead checks a response head for "200" and returns its
// Content-Length.
func httpHead(head []byte) (int, error) {
	line, rest, _ := bytes.Cut(head, []byte("\r\n"))
	f := bytes.Fields(line)
	if len(f) < 2 || !bytes.HasPrefix(f[0], []byte("HTTP/1.")) || string(f[1]) != "200" {
		return 0, fmt.Errorf("status line %q", line)
	}
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, []byte("\r\n"))
		k, v, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			return strconv.Atoi(string(bytes.TrimSpace(v)))
		}
	}
	return 0, errors.New("response without Content-Length")
}

func (h *httpFile) finish() (uint32, int, error) {
	for w := range h.conns {
		h.conns[w].drop()
	}
	h.stopServing()
	h.release()
	return 0, 0, nil
}
