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
// of 4), summed eight bytes a step in a uint64 and reduced once.
func CksumWords(acc uint32, data []byte) uint32 {
	total := uint64(acc)
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
// odd tail zero-padded: the Internet checksum's sum. It takes eight bytes
// a step, as two pairs of 16-bit lanes in a uint64; the uint64 cannot wrap
// below 2^47 bytes of data.
func CksumData(acc uint32, data []byte) uint32 {
	const lanes = 0x0000ffff0000ffff
	total := uint64(acc)
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
