package evalrig

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"
)

// The two evaluation workloads, exactly as §5 describes them: ttcp
// measures TCP bandwidth streaming fixed-size blocks, rtcp measures the
// time for a 1-byte round trip.

// TTCPResult is one bandwidth measurement.
type TTCPResult struct {
	Bytes       int
	SendSeconds float64 // sender's wall time: write start to close acked
	RecvSeconds float64 // receiver's wall time: first byte to EOF
}

// SendMbps is the transmit bandwidth in megabits per second.
func (r TTCPResult) SendMbps() float64 { return mbps(r.Bytes, r.SendSeconds) }

// RecvMbps is the receive bandwidth in megabits per second.
func (r TTCPResult) RecvMbps() float64 { return mbps(r.Bytes, r.RecvSeconds) }

func mbps(bytes int, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(bytes) * 8 / secs / 1e6
}

// TTCP streams blocks×blockSize bytes sender→receiver (the paper ran
// 131072 × 4096 = 512 MB; callers scale) and returns both sides' timing.
func TTCP(p *Pair, blocks, blockSize int, port uint16) (TTCPResult, error) {
	res, _, _, err := ttcp(p, 1, blocks, blockSize, port, false, 0)
	return res, err
}

// TTCPVerified is ttcp with end-to-end integrity: the sender streams
// blocks×blockSize bytes of a seed-determined pseudo-random pattern and
// both ends CRC-32 what they saw.  Equal sums prove the byte stream
// survived whatever the wire did to it — the assertion chaos tests make
// after running the Table-1 transfer under a hostile fault regime,
// where TCP's own checksums and retransmission are what is on trial.
func TTCPVerified(p *Pair, blocks, blockSize int, port uint16, seed int64) (sentSum, recvSum uint32, err error) {
	_, sentSum, recvSum, err = ttcp(p, 1, blocks, blockSize, port, true, seed)
	return sentSum, recvSum, err
}

// TTCPMulti is ttcp across several concurrent TCP streams — the E14
// workload.  One stream exercises one connection and one RSS ring; N
// streams on an SMP pair spread across the receive rings (4-tuple hash)
// and meet at the stack lock, which also carries a uniprocessor pair's
// concurrent callers.
//
// The result aggregates all streams: Bytes is the total across streams
// and the timings span first start to last finish, so SendMbps/RecvMbps
// report the pair's aggregate bandwidth.
func TTCPMulti(p *Pair, streams, blocks, blockSize int, port uint16) (TTCPResult, error) {
	if streams < 1 {
		streams = 1
	}
	res, _, _, err := ttcp(p, streams, blocks, blockSize, port, false, 0)
	return res, err
}

// ttcpStream is one stream's outcome on one side: the bytes a receiver
// drained, the CRC-32 of the stream when verifying, and the interval the
// side's clock covers (sender: write start to close acked; receiver:
// first byte to EOF).
type ttcpStream struct {
	n           int
	sum         uint32
	first, last time.Time
	err         error
}

// ttcp is the one transfer behind TTCP, TTCPVerified and TTCPMulti:
// streams concurrent connections, each carrying blocks×blockSize bytes.
// With verify, stream i's bytes are the pseudo-random pattern seeded
// seed+i and both sides CRC what they saw; the per-stream sums are
// XOR-folded (order-independent) into sentSum and recvSum.
func ttcp(p *Pair, streams, blocks, blockSize int, port uint16, verify bool, seed int64) (res TTCPResult, sentSum, recvSum uint32, err error) {
	rc, sc := p.Receiver, p.Sender
	want := blocks * blockSize
	res.Bytes = streams * want

	lfd, err := listen(rc, port, streams)
	if err != nil {
		return res, 0, 0, err
	}
	_ = rc.C.SetSockOpt(lfd, "rcvbuf", 32*1024)
	recvd := make(chan ttcpStream, streams)
	accepted := acceptLoop(rc, lfd, streams, func(fd int) {
		o := ttcpDrain(rc, fd, blockSize, verify)
		if o.err == nil && o.n != want {
			o.err = fmt.Errorf("ttcp: received %d of %d bytes", o.n, want)
		}
		recvd <- o
	})

	sent := make(chan ttcpStream, streams)
	for i := 0; i < streams; i++ {
		var rng *rand.Rand
		if verify {
			rng = rand.New(rand.NewSource(seed + int64(i)))
		}
		go func() { sent <- ttcpSend(sc, rc.IP, port, blocks, blockSize, rng) }()
	}

	// fold gathers one side's streams: the first error, the XOR of the
	// sums, and the seconds from the earliest start to the latest finish.
	fold := func(c <-chan ttcpStream, side string) (sum uint32, secs float64, err error) {
		var first, last time.Time
		for i := 0; i < streams; i++ {
			o := <-c
			if o.err != nil && err == nil {
				err = fmt.Errorf("ttcp %s stream: %w", side, o.err)
			}
			sum ^= o.sum
			if first.IsZero() || (!o.first.IsZero() && o.first.Before(first)) {
				first = o.first
			}
			if o.last.After(last) {
				last = o.last
			}
		}
		if !first.IsZero() && last.After(first) {
			secs = last.Sub(first).Seconds()
		}
		return sum, secs, err
	}
	if sentSum, res.SendSeconds, err = fold(sent, "send"); err != nil {
		return res, sentSum, 0, err
	}
	if err = <-accepted; err != nil {
		return res, sentSum, 0, err
	}
	closeFD(rc, lfd)
	recvSum, res.RecvSeconds, err = fold(recvd, "recv")
	return res, sentSum, recvSum, err
}

// ttcpSend is the one loop that writes ttcp blocks: connect with a
// raised send buffer (real ttcp's -b; a deep pipe keeps the sender from
// blocking on every ACK round trip), stream the blocks — each refilled
// from rng and summed when verifying — and half-close.
func ttcpSend(n *Node, to [4]byte, port uint16, blocks, blockSize int, rng *rand.Rand) (o ttcpStream) {
	fd, err := dial(n, to, port, "sndbuf", 32*1024)
	if err != nil {
		return ttcpStream{err: err}
	}
	defer closeFD(n, fd)
	block := make([]byte, blockSize)
	for i := range block {
		block[i] = byte(i)
	}
	sum := crc32.NewIEEE()
	o.first = time.Now()
	for i := 0; i < blocks; i++ {
		if rng != nil {
			rng.Read(block)
			_, _ = sum.Write(block)
		}
		if o.err = writeAll(n, fd, block); o.err != nil {
			return o
		}
	}
	o.sum = sum.Sum32()
	o.err = n.C.Shutdown(fd, 1)
	o.last = time.Now()
	return o
}

// ttcpDrain is the one loop that drains ttcp blocks: read to end of
// stream, counting (and, when verifying, summing) what arrives.
func ttcpDrain(n *Node, fd, blockSize int, verify bool) (o ttcpStream) {
	defer closeFD(n, fd)
	_ = n.C.SetSockOpt(fd, "rcvbuf", 32*1024)
	buf := make([]byte, blockSize)
	sum := crc32.NewIEEE()
	for {
		var r int
		r, o.err = n.C.Read(fd, buf)
		if o.err != nil {
			return o
		}
		if o.first.IsZero() {
			o.first = time.Now()
		}
		if r == 0 {
			break
		}
		if verify {
			_, _ = sum.Write(buf[:r])
		}
		o.n += r
	}
	o.last = time.Now()
	o.sum = sum.Sum32()
	return o
}

// RTCP measures 1-byte round trips (the paper's latency benchmark,
// similar to hbench's lat_tcp), returning microseconds per round trip.
func RTCP(p *Pair, rounds int, port uint16) (usec float64, err error) {
	rc, sc := p.Receiver, p.Sender
	lfd, err := listen(rc, port, 1)
	if err != nil {
		return 0, err
	}
	echoed := acceptLoop(rc, lfd, 1, func(fd int) {
		defer closeFD(rc, fd)
		var b [1]byte
		for readFull(rc, fd, b[:]) == nil && writeAll(rc, fd, b[:]) == nil {
		}
	})

	fd, err := dial(sc, rc.IP, port, "nodelay", 1)
	if err != nil {
		return 0, err
	}
	defer closeFD(sc, fd)
	var b [1]byte
	roundTrip := func() error {
		if err := writeAll(sc, fd, b[:]); err != nil {
			return err
		}
		return readFull(sc, fd, b[:])
	}
	// Warm up (ARP, caches).
	for i := 0; i < 4; i++ {
		if err := roundTrip(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := roundTrip(); err != nil {
			return 0, fmt.Errorf("rtcp: %w", err)
		}
	}
	elapsed := time.Since(start)
	_ = sc.C.Shutdown(fd, 1)
	<-echoed
	closeFD(rc, lfd)
	return float64(elapsed.Microseconds()) / float64(rounds), nil
}
