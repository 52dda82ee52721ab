package legacy

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"oskit/internal/cksum"
)

// TestFinishCsumMatchesSoftware holds the software finisher to the
// table the NIC's insertion engine is held to
// (hw.TestTransmitGatherCsumMatchesSoftware; the rows are the same):
// an skbuff whose field carries the folded pseudo-header seed comes out
// of FinishCsum byte for byte the packet software would have built —
// field zeroed, summed from CsumStart with the pseudo-header sum as the
// initial value, complement stored.  A descriptor that does not fit the
// packet leaves it untouched.
func TestFinishCsumMatchesSoftware(t *testing.T) {
	cases := []struct {
		name       string
		parts      []int
		start, off int
		malformed  bool
	}{
		{name: "one part", parts: []int{1514}, start: 34, off: 16},
		{name: "split on an even offset of the sum", parts: []int{54, 1460}, start: 34, off: 16},
		{name: "split on an odd offset of the sum", parts: []int{55, 1459}, start: 34, off: 16},
		{name: "four parts odd and even", parts: []int{34, 21, 700, 333}, start: 34, off: 16},
		{name: "three odd parts in a row", parts: []int{41, 13, 7, 1001}, start: 34, off: 16},
		{name: "start inside a later part", parts: []int{14, 40, 500}, start: 34, off: 16},
		{name: "start on a part boundary", parts: []int{34, 20, 500}, start: 34, off: 16},
		{name: "field straddles two parts", parts: []int{51, 500}, start: 34, off: 16},
		{name: "field is the last two bytes", parts: []int{40, 12}, start: 34, off: 16},
		{name: "odd runt", parts: []int{57}, start: 34, off: 16},
		{name: "odd runt in two parts", parts: []int{35, 22}, start: 34, off: 16},
		{name: "sum from the first byte", parts: []int{60, 61}, start: 0, off: 50},
		{name: "field past the end", parts: []int{40, 12}, start: 34, off: 17, malformed: true},
		{name: "start past the end", parts: []int{60}, start: 80, off: 16, malformed: true},
		{name: "negative start", parts: []int{60}, start: -2, off: 16, malformed: true},
		{name: "negative offset", parts: []int{60}, start: 34, off: -1, malformed: true},
	}
	k := testKernel()
	rng := rand.New(rand.NewSource(15))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := 0
			for _, n := range tc.parts {
				total += n
			}
			flat := make([]byte, total)
			rng.Read(flat)
			pseudo := rng.Uint32() >> 12
			field := tc.start + tc.off

			want := append([]byte(nil), flat...)
			if !tc.malformed {
				want[field], want[field+1] = 0, 0
				binary.BigEndian.PutUint16(want[field:], ^cksum.Fold(cksum.Add(pseudo, want[tc.start:], false)))
				binary.BigEndian.PutUint16(flat[field:], cksum.Fold(pseudo))
			}
			var parts [][]byte
			for at, rest := 0, flat; at < len(tc.parts); at++ {
				parts = append(parts, rest[:tc.parts[at]:tc.parts[at]])
				rest = rest[tc.parts[at]:]
			}

			// One part is an ordinary contiguous skbuff; more are a
			// gather skbuff.
			skb := k.FakeSKB(parts[0])
			if len(parts) > 1 {
				skb = k.FakeSKBGather(parts)
			}
			skb.NeedsCsum, skb.CsumStart, skb.CsumOff = true, tc.start, tc.off
			skb.FinishCsum()
			if skb.NeedsCsum {
				t.Error("NeedsCsum still set")
			}
			if got := skb.Flatten(); !bytes.Equal(got, want) {
				t.Fatalf("finished packet differs from software's (%d bytes, want %d)", len(got), len(want))
			}
		})
	}
}
