package hw

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"oskit/internal/cksum"
)

// csumCases is the descriptor table both checksum-finishing engines are
// held to (linux/legacy's SKBuff.FinishCsum runs the same rows): a frame
// of the given part sizes whose transport checksum field sits at
// start+off and covers everything from start.
var csumCases = []struct {
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

// TestTransmitGatherCsumMatchesSoftware: for every row, the frame the
// peer NIC receives from the insertion engine — the field seeded with
// the folded pseudo-header sum, as a checksum-offloading stack leaves
// it — is byte for byte the frame software would have sent: field
// zeroed, summed from start with the pseudo-header sum as the initial
// value, complement stored.  A malformed descriptor transmits the frame
// untouched.
func TestTransmitGatherCsumMatchesSoftware(t *testing.T) {
	wire := NewEtherWire()
	icA, icB := NewIntrController(), NewIntrController()
	defer icA.stop()
	defer icB.stop()
	macB := [6]byte{2, 0, 0, 0, 0, 2}
	a := NewNIC(icA, IRQNIC0, [6]byte{2, 0, 0, 0, 0, 1})
	b := NewNIC(icB, IRQNIC0, macB)
	wire.Attach(a)
	wire.Attach(b)

	rng := rand.New(rand.NewSource(15))
	for _, tc := range csumCases {
		t.Run(tc.name, func(t *testing.T) {
			total := 0
			for _, n := range tc.parts {
				total += n
			}
			flat := make([]byte, total)
			rng.Read(flat)
			copy(flat, macB[:])
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

			a.TransmitGatherCsum(parts, tc.start, tc.off)
			got := b.RxPop()
			if !bytes.Equal(got, want) {
				t.Fatalf("peer received a frame that differs from software's (%d bytes, want %d)", len(got), len(want))
			}
			if b.RxPop() != nil {
				t.Fatal("more than one frame reached the peer")
			}
		})
	}
}
