package cksum

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
)

// oracle is the 16-bit word-at-a-time loop every consumer carried
// before this package existed (bsdnet.Checksum, linuxnet.checksum,
// chainChecksum's per-link body), kept here as the reference the
// kernel is tested against.  odd starts the stream at an odd offset:
// the first byte is then the low half of a word, which is the same
// sum as the stream with one zero byte in front.  The accumulator is
// 64 bits wide so the oracle is exact for every initial value; where
// the old 32-bit accumulator did not overflow the two agree.
func oracle(initial uint32, data []byte, odd bool) uint16 {
	sum := uint64(initial)
	if odd && len(data) > 0 {
		sum += uint64(data[0])
		data = data[1:]
	}
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		sum += uint64(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// checkAgainstOracle asserts the kernel equals the oracle over the
// whole buffer and over the two-run split at cut, at the given
// starting parity.
func checkAgainstOracle(t *testing.T, initial uint32, data []byte, cut int, odd bool) {
	t.Helper()
	want := oracle(initial, data, odd)
	if got := Fold(Add(initial, data, odd)); got != want {
		t.Fatalf("len %d odd=%v initial=%#x: whole = %#04x, oracle %#04x", len(data), odd, initial, got, want)
	}
	a, b := data[:cut], data[cut:]
	sum := Add(initial, a, odd)
	sum = Add(sum, b, odd != (len(a)%2 == 1))
	if got := Fold(sum); got != want {
		t.Fatalf("len %d cut %d odd=%v initial=%#x: split = %#04x, oracle %#04x", len(data), cut, odd, initial, got, want)
	}
}

func TestInetSumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	cases := map[string][]byte{
		"empty":       nil,
		"one byte":    {0xab},
		"all zero":    bytes.Repeat([]byte{0}, 1500),
		"all ff":      bytes.Repeat([]byte{0xff}, 1500),
		"all ff odd":  bytes.Repeat([]byte{0xff}, 1501),
		"max segment": random(65535),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			for _, odd := range []bool{false, true} {
				for _, initial := range []uint32{0, 0xffff, 0x1234abcd, 0xffffffff} {
					for _, cut := range []int{0, len(data) / 3, len(data) / 2, len(data)} {
						checkAgainstOracle(t, initial, data, cut, odd)
					}
				}
			}
		})
	}
	// Every length around the kernel's 32-, 8- and tail-byte seams, every
	// split point, both parities.
	for n := 0; n <= 70; n++ {
		data := random(n)
		for cut := 0; cut <= n; cut++ {
			checkAgainstOracle(t, uint32(n)*0x01010101, data, cut, false)
			checkAgainstOracle(t, uint32(n)*0x01010101, data, cut, true)
		}
	}
}

// TestInetSumRFC1071Vector is the worked example of RFC 1071 §3: the
// bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2 (checksum 220d).
func TestInetSumRFC1071Vector(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Fold(Add(0, data, false)); got != 0xddf2 {
		t.Fatalf("sum = %#04x, want 0xddf2", got)
	}
	// A packet carrying its own correct checksum sums to ffff.
	pkt := append(data, 0x22, 0x0d)
	if got := Fold(Add(0, pkt, false)); got != 0xffff {
		t.Fatalf("verify = %#04x, want 0xffff", got)
	}
}

func FuzzInetSum(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(0))
	f.Add([]byte{0x45}, uint16(1), uint32(0xffff))
	f.Add(bytes.Repeat([]byte{0xff}, 41), uint16(7), uint32(0xffffffff))
	f.Add([]byte("GET /file3 HTTP/1.1\r\nHost: oskit\r\n\r\n"), uint16(19), uint32(0x2c0a8))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, initial uint32) {
		cut := 0
		if len(data) > 0 {
			cut = int(split) % (len(data) + 1)
		}
		checkAgainstOracle(t, initial, data, cut, false)
		checkAgainstOracle(t, initial, data, cut, true)
	})
}

var sink uint32

func BenchmarkAdd(b *testing.B) {
	for _, n := range []int{20, 64, 1024, 1460} {
		data := bytes.Repeat([]byte{0x5a}, n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink = Add(sink, data, false)
			}
		})
	}
}
