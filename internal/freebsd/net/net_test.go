package bsdnet

import (
	"bytes"
	"testing"
	"testing/quick"

	"oskit/internal/com"
	"oskit/internal/core"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/lmm"
)

func testStack(t *testing.T) *Stack {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 16 << 20})
	t.Cleanup(m.Halt)
	arena := lmm.NewArena()
	if err := arena.AddRegion(0x100000, 8<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	arena.AddFree(0x100000, 8<<20)
	g := bsdglue.New(core.NewEnv(m, arena))
	s := NewStack(g)
	t.Cleanup(s.Close)
	return s
}

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d
	// (ones-complement sum ddf2 → checksum 220d).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != 0x220d {
		t.Errorf("Checksum = %#x, want 0x220d", got)
	}
	// A buffer with its own checksum inserted sums to zero.
	hdr := []byte{0x45, 0x00, 0x00, 0x54, 0x00, 0x00, 0x40, 0x00, 0x40, 0x01,
		0x00, 0x00, 10, 0, 0, 1, 10, 0, 0, 2}
	c := Checksum(hdr, 0)
	hdr[10], hdr[11] = byte(c>>8), byte(c)
	if Checksum(hdr, 0) != 0 {
		t.Error("self-checksummed header does not verify")
	}
	// Odd-length data.
	if Checksum([]byte{0xFF}, 0) != ^uint16(0xFF00) {
		t.Error("odd-length checksum wrong")
	}
}

// Property: the chain checksum equals the flat checksum regardless of how
// the bytes are split across mbuf links.
func TestChainChecksumEquivalenceProperty(t *testing.T) {
	s := testStack(t)
	f := func(data []byte, cuts []uint8) bool {
		m := s.MGetHdr()
		if m == nil {
			return false
		}
		// Build a chain by appending in arbitrary chunks.
		rest := data
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c)%len(rest) + 1
			if !m.Append(rest[:n]) {
				return false
			}
			rest = rest[n:]
		}
		if len(rest) > 0 && !m.Append(rest) {
			return false
		}
		got := s.chainChecksum(m, 0)
		want := Checksum(data, 0)
		m.FreeChain()

		// The same bytes as foreign links ending exactly at the cuts,
		// odd offsets included — the shape of sendfile's page chains,
		// which Append's coalescing does not reproduce.
		owner := com.NewMemBuf(data)
		defer owner.Release()
		ext := s.MGetHdr()
		tail := ext
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := len(rest)
			if i < len(cuts) {
				n = int(cuts[i])%len(rest) + 1
			}
			tail.Next = s.MExt(owner, rest[:n])
			tail, rest = tail.Next, rest[n:]
		}
		gotExt := s.chainChecksum(ext, 0)
		ext.FreeChain()
		return got == want && gotExt == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xfffffff0, 0x10) { // wraparound
		t.Error("seqLT fails across wrap")
	}
	if seqGT(0xfffffff0, 0x10) {
		t.Error("seqGT wrong across wrap")
	}
	if !seqLEQ(5, 5) || !seqGEQ(5, 5) {
		t.Error("equality cases wrong")
	}
}

func TestMbufAppendAdjPullup(t *testing.T) {
	s := testStack(t)
	m := s.MGetHdr()
	payload := bytes.Repeat([]byte("0123456789"), 50) // 500 bytes
	if !m.Append(payload) {
		t.Fatal("Append failed")
	}
	if m.PktLen != 500 {
		t.Fatalf("PktLen = %d", m.PktLen)
	}
	out := make([]byte, 500)
	if n := m.CopyData(0, 500, out); n != 500 || !bytes.Equal(out, payload) {
		t.Fatal("CopyData mismatch")
	}
	// Trim 13 front, 7 back.
	m.Adj(13)
	m.Adj(-7)
	if m.PktLen != 480 {
		t.Fatalf("after Adj: %d", m.PktLen)
	}
	out = out[:480]
	m.CopyData(0, 480, out)
	if !bytes.Equal(out, payload[13:493]) {
		t.Fatal("Adj moved wrong bytes")
	}
	// Pullup across links.
	m = m.Pullup(200)
	if m == nil || m.Len() < 200 {
		t.Fatal("Pullup failed")
	}
	if !bytes.Equal(m.Data()[:200], payload[13:213]) {
		t.Fatal("Pullup corrupted data")
	}
	m.FreeChain()
}

func TestMbufPrependHeadroom(t *testing.T) {
	s := testStack(t)
	m := s.MGetHdr()
	m.Append([]byte("data"))
	// MGetHdr leaves MHLEN-headroom; a 20-byte prepend must reuse it.
	m2 := m.Prepend(20)
	if m2 != m {
		t.Fatal("Prepend allocated although headroom existed")
	}
	if m2.PktLen != 24 {
		t.Fatalf("PktLen = %d", m2.PktLen)
	}
	// Exhaust headroom: eventually a new link appears in front.
	for i := 0; i < 5; i++ {
		m2 = m2.Prepend(14)
		if m2 == nil {
			t.Fatal("Prepend failed")
		}
	}
	if m2.PktLen != 24+5*14 {
		t.Fatalf("PktLen = %d", m2.PktLen)
	}
	m2.FreeChain()
}

func TestMbufClusterSharing(t *testing.T) {
	s := testStack(t)
	m := s.MGetHdr()
	big := bytes.Repeat([]byte{7}, 3000) // forces clusters
	if !m.Append(big) {
		t.Fatal("Append failed")
	}
	live0 := s.g.Malloc.LiveBytes()
	cp := m.CopyM(100, 2500)
	if cp == nil || cp.PktLen != 2500 {
		t.Fatal("CopyM failed")
	}
	// Cluster links are shared: the copy added (almost) no storage.
	grew := s.g.Malloc.LiveBytes() - live0
	if grew > MSIZE*2 {
		t.Fatalf("CopyM allocated %d bytes; clusters not shared", grew)
	}
	out := make([]byte, 2500)
	cp.CopyData(0, 2500, out)
	if !bytes.Equal(out, big[100:2600]) {
		t.Fatal("CopyM data wrong")
	}
	// Freeing the original must not free shared clusters.
	m.FreeChain()
	cp.CopyData(0, 2500, out)
	if !bytes.Equal(out, big[100:2600]) {
		t.Fatal("shared cluster freed under the copy")
	}
	cp.FreeChain()
	if s.g.Malloc.LiveBytes() != live0-(live0-0) && s.g.Malloc.LiveBytes() > live0 {
		t.Fatalf("storage leak: %d live", s.g.Malloc.LiveBytes())
	}
}

func TestMbufIOMapContract(t *testing.T) {
	s := testStack(t)
	// Contiguous packet: Map succeeds.
	m := s.MGetHdr()
	m.Append([]byte("tiny"))
	bio := s.wrapMbuf(m)
	if _, err := bio.Map(0, 4); err != nil {
		t.Fatalf("Map on contiguous packet: %v", err)
	}
	bio.Release()

	// Chained packet: Map of a range spanning links must decline, and
	// Read must still gather correctly (§4.7.3).
	m2 := s.MGetHdr()
	data := bytes.Repeat([]byte{0xC3}, 4000)
	m2.Append(data)
	if m2.Contiguous() {
		t.Fatal("4000-byte append unexpectedly contiguous")
	}
	bio2 := s.wrapMbuf(m2)
	if _, err := bio2.Map(0, 4000); err != com.ErrNotImplemented {
		t.Fatalf("Map on chain = %v, want ErrNotImplemented", err)
	}
	got, err := com.ReadFullBufIO(bio2, 4000)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFull on chain: %v", err)
	}
	bio2.Release()
}

func TestMbufExtForeignStorage(t *testing.T) {
	s := testStack(t)
	foreign := com.NewMemBuf([]byte("foreign frame data"))
	data, _ := foreign.Map(0, 18)
	m := s.MExt(foreign, data)
	if foreign.Refs() != 2 {
		t.Fatalf("MExt did not hold a reference: %d", foreign.Refs())
	}
	if m.PktLen != 18 || !bytes.Equal(m.Data(), []byte("foreign frame data")) {
		t.Fatal("MExt data wrong")
	}
	m.FreeChain()
	if foreign.Refs() != 1 {
		t.Fatalf("MExt leak: %d refs", foreign.Refs())
	}
}

func TestIPFragmentationRoundTrip(t *testing.T) {
	// Two full machines exchanging a datagram larger than the MTU.
	a, b := connectedStacks(t)

	// Prime the ARP cache first: an unresolved entry holds only the
	// *newest* queued packet (BSD behaviour), which would silently drop
	// all but the last fragment of a cold-start burst.
	if _, ok := a.Ping(ipB, 77, nil, 500); !ok {
		t.Fatal("priming ping failed")
	}

	payload := bytes.Repeat([]byte("fragmentme!!"), 400) // 4800 bytes > MTU
	done := make(chan []byte, 1)
	go func() {
		restoreB := b.g.Enter("rcv")
		defer restoreB()
		b.mu.Enter()
		pcb := b.udpNew()
		if err := b.udpBind(pcb, 9000); err != nil {
			b.mu.Leave()
			done <- nil
			return
		}
		buf := make([]byte, 8192)
		n, _, _, err := b.udpRecv(pcb, buf)
		b.mu.Leave()
		if err != nil {
			done <- nil
			return
		}
		done <- buf[:n]
	}()
	waitSettle()

	restoreA := a.g.Enter("snd")
	a.mu.Enter()
	pcbA := a.udpNew()
	err := a.udpOutput(pcbA, payload, b.ifIP, 9000)
	a.mu.Leave()
	if err != nil {
		t.Fatal(err)
	}
	restoreA()

	got := <-done
	if !bytes.Equal(got, payload) {
		t.Fatalf("fragmented datagram corrupted: got %d bytes want %d", len(got), len(payload))
	}
	if stat(t, b, "ip.frags_in") == 0 || stat(t, b, "ip.reasm_ok") == 0 {
		t.Fatalf("no fragments seen: %s", statDump(b))
	}
}
