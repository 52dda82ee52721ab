// Package cksum is the kit's one Internet-checksum kernel (RFC 1071),
// under both protocol stacks, the donor driver library and the NIC
// model's insertion engine.  It is a leaf — standard library only, a
// pure function on bytes — so donor code imports it the way each donor
// OS carried its architecture's in_cksum / csum_partial: no kit type
// crosses the boundary.
//
// RFC 1071 §2: the ones-complement sum may be taken in any grouping and
// in a wider word as long as carries are added back in, and a run that
// starts at an odd offset contributes its sum byte-swapped.  So the sum
// is taken eight bytes at a time, and is bit-identical to the 16-bit
// loop it replaced (the oracle in cksum_test.go).
package cksum

import (
	"encoding/binary"
	"math/bits"
)

// Add adds the ones-complement sum of b into the partial sum.  odd says
// b starts at an odd offset of the stream being summed (its first byte
// is the low half of a word): a caller summing a scattered packet flips
// it after every odd-length run.
func Add(sum uint32, b []byte, odd bool) uint32 {
	var acc, c uint64
	for len(b) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[8:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail word, zero-padded: whole 16-bit words in the low half of
	// the accumulator, then a last byte as the high half of a word.
	if len(b) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint32(b)), c)
		b = b[4:]
	}
	if len(b) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		acc, c = bits.Add64(acc, uint64(b[0])<<8, c)
	}
	acc, c = bits.Add64(acc, c, 0)
	acc += c
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	run := uint16(acc>>16 + acc&0xffff)
	if odd {
		run = bits.ReverseBytes16(run)
	}
	s := sum + uint32(run)
	if s < sum {
		s++ // end-around carry out of the partial sum
	}
	return s
}

// Fold reduces a partial sum to 16 bits WITHOUT the final complement:
// ^Fold(sum) is the checksum to store, and Fold over a packet that
// carries its correct checksum is 0xffff.
func Fold(sum uint32) uint16 {
	sum = sum>>16 + sum&0xffff
	return uint16(sum>>16 + sum&0xffff)
}
