package hw

import (
	"encoding/binary"
	"testing"
)

// rssFrame builds a minimal Ethernet+IPv4+TCP/UDP frame for hash tests.
func rssFrame(proto byte, src, dst uint32, sport, dport uint16, fragField uint16, payload int) []byte {
	f := make([]byte, EtherHdrLen+20+4+payload)
	binary.BigEndian.PutUint16(f[12:14], rssEtherTypeIPv4)
	ip := f[EtherHdrLen:]
	ip[0] = 0x45
	ip[9] = proto
	binary.BigEndian.PutUint16(ip[6:8], fragField)
	binary.BigEndian.PutUint32(ip[12:16], src)
	binary.BigEndian.PutUint32(ip[16:20], dst)
	binary.BigEndian.PutUint16(ip[20:22], sport)
	binary.BigEndian.PutUint16(ip[22:24], dport)
	return f
}

// TestRSSFlowAffinity is the RSS correctness property: every segment of
// one flow lands on the same ring, for every ring count 1–8 — no
// intra-flow reordering regardless of queue configuration.
func TestRSSFlowAffinity(t *testing.T) {
	// A deterministic LCG generates flows; each flow emits segments of
	// varying payload sizes (the hash must not read past the 4-tuple).
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed }
	for nrings := 1; nrings <= 8; nrings++ {
		for flow := 0; flow < 200; flow++ {
			proto := byte(rssProtoTCP)
			if next()%2 == 0 {
				proto = rssProtoUDP
			}
			src, dst := uint32(next()), uint32(next())
			sport, dport := uint16(next()), uint16(next())
			want := -1
			for _, payload := range []int{0, 1, 536, 1460} {
				f := rssFrame(proto, src, dst, sport, dport, 0, payload)
				ring := RSSRing(f, nrings)
				if ring < 0 || ring >= nrings {
					t.Fatalf("ring %d out of range [0,%d)", ring, nrings)
				}
				if want == -1 {
					want = ring
				} else if ring != want {
					t.Fatalf("nrings=%d flow %d: segment (payload %d) on ring %d, first on %d",
						nrings, flow, payload, ring, want)
				}
			}
		}
	}
}

// TestRSSFragmentsFollowFirst: once a datagram is fragmented, later
// fragments carry no ports — every fragment (including the first, whose
// MF bit is set) must hash by addresses only, to one common ring.
func TestRSSFragmentsFollowFirst(t *testing.T) {
	src, dst := uint32(0x0a020001), uint32(0x0a020002)
	first := rssFrame(rssProtoUDP, src, dst, 7777, 9999, 0x2000, 64)    // MF set, offset 0
	mid := rssFrame(rssProtoUDP, src, dst, 0xdead, 0xbeef, 0x2005, 64)  // MF set, offset 5 (garbage "ports")
	last := rssFrame(rssProtoUDP, src, dst, 0x1234, 0x5678, 0x000a, 64) // offset 10
	for nrings := 2; nrings <= 8; nrings++ {
		r0 := RSSRing(first, nrings)
		if RSSRing(mid, nrings) != r0 || RSSRing(last, nrings) != r0 {
			t.Fatalf("nrings=%d: fragments split across rings %d/%d/%d",
				nrings, r0, RSSRing(mid, nrings), RSSRing(last, nrings))
		}
	}
}

// TestRSSNonIPToRingZero: ARP, runts, and truncated IP all classify to
// ring 0 (where the legacy line and CPU 0 live).
func TestRSSNonIPToRingZero(t *testing.T) {
	arp := make([]byte, 60)
	binary.BigEndian.PutUint16(arp[12:14], 0x0806)
	cases := [][]byte{
		nil,
		make([]byte, 5),
		make([]byte, EtherHdrLen),
		arp,
		rssFrame(rssProtoTCP, 1, 2, 3, 4, 0, 0)[:EtherHdrLen+19], // truncated IP header
	}
	for i, f := range cases {
		if r := RSSRing(f, 8); r != 0 {
			t.Fatalf("case %d: ring %d, want 0", i, r)
		}
	}
}

// TestRSSSpreads: distinct flows actually land on distinct rings (the
// hash is not degenerate).
func TestRSSSpreads(t *testing.T) {
	used := map[int]bool{}
	for p := uint16(1); p <= 64; p++ {
		f := rssFrame(rssProtoTCP, 0x0a020001, 0x0a020002, 1000+p, 5001, 0, 0)
		used[RSSRing(f, 4)] = true
	}
	if len(used) < 3 {
		t.Fatalf("64 flows hit only %d of 4 rings", len(used))
	}
}

// FuzzRSSHash: arbitrary bytes must never panic the classifier and must
// always map into range.
func FuzzRSSHash(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EtherHdrLen))
	f.Add(rssFrame(rssProtoTCP, 1, 2, 3, 4, 0, 32))
	f.Add(rssFrame(rssProtoUDP, 5, 6, 7, 8, 0x2000, 8))
	f.Add(rssFrame(rssProtoTCP, 1, 2, 3, 4, 0, 0)[:EtherHdrLen+21])     // truncated transport
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x08, 0x00, 0x4f}) // IHL=15, short
	f.Fuzz(func(t *testing.T, frame []byte) {
		h1 := RSSHash(frame)
		h2 := RSSHash(frame)
		if h1 != h2 {
			t.Fatalf("hash not deterministic: %#x vs %#x", h1, h2)
		}
		for nrings := 1; nrings <= 8; nrings++ {
			if r := RSSRing(frame, nrings); r < 0 || r >= nrings {
				t.Fatalf("ring %d out of range [0,%d)", r, nrings)
			}
		}
	})
}
