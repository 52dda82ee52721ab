package bsdnet

import (
	"encoding/binary"
	"testing"

	"oskit/internal/com"
	"oskit/internal/core"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/lmm"
)

// Fuzzing the stack's inbound parsers: whatever the wire delivers —
// truncated headers, lying length fields, absurd data offsets — the
// stack must drop or answer it, never panic.  The fault-injection plane
// corrupts frames at random offsets (internal/faults), so these parsers
// see genuinely hostile input in every chaos run; the fuzzers hammer
// the same property directly.

var (
	fuzzIP   = IPAddr{10, 0, 0, 1}
	fuzzPeer = IPAddr{10, 0, 0, 2}
)

const fuzzPort = 7777

// fuzzStack boots one stack with a listening socket, so fuzzed segments
// can reach the listen-state machine as well as the orphan path.  No
// NIC is attached: outbound replies (RSTs, SYN-ACKs) die quietly in
// etherOutput, which is itself part of the surface under test.
func fuzzStack(f *testing.F) *Stack {
	f.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 16 << 20})
	f.Cleanup(m.Halt)
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x100000, 8<<20, 0, 0); err != nil {
		f.Fatal(err)
	}
	arena.AddFree(0x100000, 8<<20)
	s := NewStack(bsdglue.New(core.NewEnv(m, arena)))
	f.Cleanup(s.Close)
	s.Ifconfig(fuzzIP, IPAddr{255, 255, 255, 0})

	fac := s.SocketFactory()
	defer fac.Release()
	so, err := fac.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		f.Fatal(err)
	}
	a := com.SockAddr{Family: com.AFInet, Port: fuzzPort}
	copy(a.Addr[:], fuzzIP[:])
	if err := so.Bind(a); err != nil {
		f.Fatal(err)
	}
	if err := so.Listen(4); err != nil {
		f.Fatal(err)
	}
	// The chain-leak check every fuzz target ends on.  Closing the
	// listener resets whatever connections the inputs opened, and 30
	// hand-run slow ticks give ARP up on every reply it was holding;
	// after that a live mbuf is a chain some input path dropped without
	// freeing — a driver buffer, since segments carry the received chain.
	f.Cleanup(func() {
		_ = so.Close()
		for i := 0; i < 30; i++ {
			s.slowTimo()
		}
		if allocs, frees := stat(f, s, "mbuf.allocs"), stat(f, s, "mbuf.frees"); allocs != frees {
			f.Errorf("mbuf.allocs = %d, mbuf.frees = %d after the stack quiesced: a chain leaked", allocs, frees)
		}
	})
	return s
}

// inject hands raw bytes to an input routine the way the receive entry
// would: as a packet-header mbuf chain, under the stack lock.
func inject(t *testing.T, s *Stack, data []byte, enter func(*Mbuf)) {
	if len(data) > 8192 {
		return // cap the chain length, not the parse space
	}
	m := s.MGetHdr()
	if m == nil {
		t.Skip("mbuf exhausted")
	}
	if len(data) > 0 && !m.Append(data) {
		m.FreeChain()
		t.Skip("cluster exhausted")
	}
	s.mu.Enter()
	enter(m)
	s.rxFlush()
	s.mu.Leave()
	// The fuzz stack has no running clock, so run the BSD slow timer by
	// hand: reassembly queues, ARP holds and embryonic connections age
	// out instead of pinning mbufs until the arena runs dry.
	s.slowTimo()
}

// ipDatagram builds a well-formed IP datagram addressed to the fuzz
// stack — the seeds that get the fuzzer past the header checksum.
func ipDatagram(proto byte, payload []byte) []byte {
	b := make([]byte, ipHdrLen+len(payload))
	b[0] = 0x45
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	b[8] = 64
	b[9] = proto
	copy(b[12:16], fuzzPeer[:])
	copy(b[16:20], fuzzIP[:])
	c := Checksum(b[:ipHdrLen], 0)
	binary.BigEndian.PutUint16(b[10:12], c)
	copy(b[ipHdrLen:], payload)
	return b
}

// tcpSegment builds a checksummed TCP segment for the fuzz stack.
func tcpSegment(sport, dport uint16, seq, ack uint32, flags byte, payload []byte) []byte {
	b := make([]byte, tcpHdrLen+len(payload))
	binary.BigEndian.PutUint16(b[0:2], sport)
	binary.BigEndian.PutUint16(b[2:4], dport)
	binary.BigEndian.PutUint32(b[4:8], seq)
	binary.BigEndian.PutUint32(b[8:12], ack)
	b[12] = byte(tcpHdrLen/4) << 4
	b[13] = flags
	binary.BigEndian.PutUint16(b[14:16], 4096)
	copy(b[tcpHdrLen:], payload)
	c := Checksum(b, pseudoSum(fuzzPeer, fuzzIP, ProtoTCP, len(b)))
	binary.BigEndian.PutUint16(b[16:18], c)
	return b
}

// FuzzIPInput throws raw datagrams at the IP layer.  With fix set the
// harness repairs the header checksum and destination first, so mutated
// inputs reach reassembly and the transport demux instead of dying at
// the checksum gate; raw mode exercises the gate itself.
func FuzzIPInput(f *testing.F) {
	s := fuzzStack(f)

	f.Add([]byte{}, false)
	f.Add([]byte{0x45}, false)
	f.Add(ipDatagram(ProtoICMP, []byte{8, 0, 0, 0, 0, 1, 0, 1, 'h', 'i'}), false)
	f.Add(ipDatagram(ProtoTCP, tcpSegment(2000, fuzzPort, 1, 0, thSYN, nil)), true)
	f.Add(ipDatagram(ProtoUDP, []byte{0x07, 0xd0, 0x1e, 0x61, 0x00, 0x09, 0x00, 0x00, 'x'}), true)
	// First fragment of a datagram (MF set, offset 0).
	frag := ipDatagram(ProtoUDP, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	binary.BigEndian.PutUint16(frag[6:8], ipFlagMF)
	binary.BigEndian.PutUint16(frag[10:12], 0)
	c := Checksum(frag[:ipHdrLen], 0)
	binary.BigEndian.PutUint16(frag[10:12], c)
	f.Add(frag, false)
	// Lying total-length and data-offset fields.
	lie := ipDatagram(ProtoTCP, tcpSegment(2000, fuzzPort, 1, 0, thSYN, nil))
	binary.BigEndian.PutUint16(lie[2:4], 0xffff)
	f.Add(lie, true)

	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix && len(data) >= ipHdrLen {
			data = append([]byte(nil), data...)
			copy(data[16:20], fuzzIP[:])
			hlen := int(data[0]&0xf) * 4
			if hlen >= ipHdrLen && hlen <= len(data) {
				data[10], data[11] = 0, 0
				c := Checksum(data[:hlen], 0)
				binary.BigEndian.PutUint16(data[10:12], c)
			}
		}
		inject(t, s, data, func(m *Mbuf) { s.ipInput(m) })
	})
}

// FuzzTCPSegInput bypasses IP and throws raw segments straight at the
// TCP parser.  fix repairs the transport checksum so mutations reach
// the option parser and the listen/orphan state machines.
func FuzzTCPSegInput(f *testing.F) {
	s := fuzzStack(f)

	f.Add([]byte{}, false)
	f.Add(tcpSegment(2000, fuzzPort, 100, 0, thSYN, nil), true)
	f.Add(tcpSegment(2000, fuzzPort, 100, 7, thACK, []byte("payload")), true)
	f.Add(tcpSegment(2000, 9, 1, 1, thRST|thACK, nil), true)
	f.Add(tcpSegment(2000, fuzzPort, 1, 1, thSYN|thFIN|thRST|thACK, nil), true)
	// SYN carrying an MSS option plus trailing garbage options.
	withOpts := tcpSegment(2001, fuzzPort, 5, 0, thSYN, []byte{2, 4, 0x05, 0xb4, 1, 1, 0, 9, 9})
	withOpts[12] = byte((tcpHdrLen + 8) / 4 << 4)
	f.Add(withOpts, true)
	// Data offset pointing past the segment.
	bad := tcpSegment(2000, fuzzPort, 1, 0, thSYN, nil)
	bad[12] = 0xf0
	f.Add(bad, false)

	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix && len(data) >= tcpHdrLen {
			data = append([]byte(nil), data...)
			data[16], data[17] = 0, 0
			c := Checksum(data, pseudoSum(fuzzPeer, fuzzIP, ProtoTCP, len(data)))
			binary.BigEndian.PutUint16(data[16:18], c)
		}
		inject(t, s, data, func(m *Mbuf) { s.tcpInput(m, fuzzPeer, fuzzIP) })
	})
}

// etherFrame wraps a payload in an Ethernet header of the given type
// for the batched-delivery fuzzer (the demux has no address filter —
// the driver's NIC did that — so only the type field steers).
func etherFrame(etype uint16, payload []byte) []byte {
	b := make([]byte, 14+len(payload))
	copy(b[0:6], []byte{2, 0, 0, 0, 0, 1})
	copy(b[6:12], []byte{2, 0, 0, 0, 0, 2})
	binary.BigEndian.PutUint16(b[12:14], etype)
	copy(b[14:], payload)
	return b
}

// FuzzEtherBatchInput throws malformed frame batches at the batched
// delivery path (com.NetIOBatch) — the E12 entry point that a polled
// driver uses instead of per-frame Push.  The harness carves the fuzz
// bytes into nframes frames and pushes them as one batch, so mutations
// exercise the whole softint pass: ether demux per frame, the deferred
// wakeup/ACK flush, and the consume-on-error contract (a lying size
// mid-batch must not stop the rest of the batch or leak a reference).
func FuzzEtherBatchInput(f *testing.F) {
	s := fuzzStack(f)
	recv := &stackRecv{s: s}
	recv.Init()
	f.Cleanup(func() { recv.Release() })

	f.Add([]byte{}, uint8(0), false)
	f.Add(etherFrame(EtherTypeIP, ipDatagram(ProtoICMP, []byte{8, 0, 0, 0, 0, 1, 0, 1, 'h', 'i'})), uint8(1), false)
	f.Add(etherFrame(EtherTypeIP, ipDatagram(ProtoTCP, tcpSegment(2000, fuzzPort, 1, 0, thSYN, nil))), uint8(1), false)
	f.Add(etherFrame(EtherTypeARP, []byte{0, 1, 8, 0, 6, 4, 0, 1}), uint8(2), false)
	f.Add(etherFrame(0x86dd, []byte("unknown ethertype")), uint8(3), false)
	// Two well-formed TCP frames fuzzed as one buffer: split points land
	// mid-header, producing truncated frames in every position.
	two := append(etherFrame(EtherTypeIP, ipDatagram(ProtoTCP, tcpSegment(2000, fuzzPort, 1, 0, thSYN, nil))),
		etherFrame(EtherTypeIP, ipDatagram(ProtoTCP, tcpSegment(2001, fuzzPort, 9, 0, thSYN, nil)))...)
	f.Add(two, uint8(2), false)
	f.Add(two, uint8(5), true)

	f.Fuzz(func(t *testing.T, data []byte, nframes uint8, lieSize bool) {
		if len(data) > 8192 {
			return
		}
		n := int(nframes%16) + 1
		// Carve data into n frames (possibly empty at the tail).
		pkts := make([]com.BufIO, 0, n)
		sizes := make([]uint, 0, n)
		per := len(data)/n + 1
		for i := 0; i < n; i++ {
			lo := i * per
			if lo > len(data) {
				lo = len(data)
			}
			hi := lo + per
			if hi > len(data) {
				hi = len(data)
			}
			chunk := append([]byte(nil), data[lo:hi]...)
			size := uint(len(chunk))
			if lieSize && i == n/2 {
				size += 7 // lies past the buffer: must error, not wedge the batch
			}
			pkts = append(pkts, com.NewMemBuf(chunk))
			sizes = append(sizes, size)
		}
		_ = recv.PushBatch(pkts, sizes)
		// Mismatched length arrays: every packet must still be consumed.
		_ = recv.PushBatch([]com.BufIO{com.NewMemBuf(append([]byte(nil), data...))}, nil)
		s.slowTimo()
	})
}
