package vcode

import (
	"encoding/binary"
	"math/bits"
)

// The ones-complement (RFC 1071) arithmetic behind cksum32 and every
// Internet checksum in the tree. An accumulator is the end-around-carry
// sum of what it has taken: 0 if all of it is 0, else the representative
// of its total modulo 2^32-1 in [1, 2^32-1]. A carry out of bit 31 is
// worth 1 modulo 2^32-1, which is the end-around carry, so the terms can
// be summed in any grouping and reduced once.

// CksumAdd is cksum32: a plus b with the carry out of bit 31 added back in.
// It also combines two accumulators.
func CksumAdd(a, b uint32) uint32 {
	s, c := bits.Add32(a, b, 0)
	return s + c
}

// CksumWords returns what cksum32 leaves in an accumulator that starts at
// acc and takes each big-endian word of data in turn (len(data) a multiple
// of 4). It takes 32 bytes a step into four independent uint64 lanes, one
// per 8 bytes, each the sum of its two words; see cksumBlock.
func CksumWords(acc uint32, data []byte) uint32 {
	total := uint64(acc)
	for len(data) >= 32 {
		var s0, s1, s2, s3 uint64
		n := min(len(data)/32, cksumBlock)
		for i := 0; i < n; i++ {
			b := (*[32]byte)(data[32*i:])
			x0, x1 := binary.BigEndian.Uint64(b[0:]), binary.BigEndian.Uint64(b[8:])
			x2, x3 := binary.BigEndian.Uint64(b[16:]), binary.BigEndian.Uint64(b[24:])
			s0 += x0>>32 + x0&0xffffffff
			s1 += x1>>32 + x1&0xffffffff
			s2 += x2>>32 + x2&0xffffffff
			s3 += x3>>32 + x3&0xffffffff
		}
		total = fold(total) + fold(s0) + fold(s1) + fold(s2) + fold(s3)
		data = data[32*n:]
	}
	for ; len(data) >= 8; data = data[8:] {
		x := binary.BigEndian.Uint64(data)
		total += x>>32 + x&0xffffffff
	}
	if len(data) >= 4 {
		total += uint64(binary.BigEndian.Uint32(data))
	}
	return reduce(total)
}

// CksumData folds data into an accumulator as big-endian 16-bit words, an
// odd tail zero-padded: the Internet checksum's sum. It takes 32 bytes a
// step into four independent uint64 lanes, one per 8 bytes, each adding its
// four halfwords as two pairs: one pair at bit 0 and one at bit 32, which
// is worth 1 modulo 2^32-1; see cksumBlock.
func CksumData(acc uint32, data []byte) uint32 {
	const lanes = 0x0000ffff0000ffff
	total := uint64(acc)
	for len(data) >= 32 {
		var s0, s1, s2, s3 uint64
		n := min(len(data)/32, cksumBlock)
		for i := 0; i < n; i++ {
			b := (*[32]byte)(data[32*i:])
			x0, x1 := binary.BigEndian.Uint64(b[0:]), binary.BigEndian.Uint64(b[8:])
			x2, x3 := binary.BigEndian.Uint64(b[16:]), binary.BigEndian.Uint64(b[24:])
			s0 += x0&lanes + x0>>16&lanes
			s1 += x1&lanes + x1>>16&lanes
			s2 += x2&lanes + x2>>16&lanes
			s3 += x3&lanes + x3>>16&lanes
		}
		total = fold(total) + fold(s0) + fold(s1) + fold(s2) + fold(s3)
		data = data[32*n:]
	}
	for ; len(data) >= 8; data = data[8:] {
		x := binary.BigEndian.Uint64(data)
		total += x&lanes + x>>16&lanes
	}
	for ; len(data) >= 2; data = data[2:] {
		total += uint64(data[0])<<8 | uint64(data[1])
	}
	if len(data) == 1 {
		total += uint64(data[0]) << 8
	}
	return reduce(total)
}

// cksumBlock is how many 32-byte steps a lane of CksumWords or CksumData
// takes before it is folded. A step adds less than 2^33 to a CksumWords
// lane and less than 2^49 to a CksumData lane (two 16-bit lanes at bit 32),
// so a lane stays below 2^63 over a block: no uint64 wraps, and the lanes
// sum in any grouping. fold keeps each total below 2^33, so the block's
// total of five folds stays below 2^36, and the tail of under 32 bytes
// cannot take it near 2^64.
const cksumBlock = 1 << 14

// fold returns a value below 2^33 congruent to x modulo 2^32-1, and 0 only
// for 0.
func fold(x uint64) uint64 {
	return x>>32 + x&0xffffffff
}

// reduce is the accumulator for a total: 0 for 0, else total modulo
// 2^32-1 in [1, 2^32-1].
func reduce(total uint64) uint32 {
	if total == 0 {
		return 0
	}
	return uint32((total-1)%0xffffffff) + 1
}

// Fold16 folds an accumulator into the 16-bit Internet checksum value, not
// yet complemented (the handler is "responsible for ... folding it to 16
// bits").
func Fold16(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint16(acc)
}
