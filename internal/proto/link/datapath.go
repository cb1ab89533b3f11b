package link

import (
	"encoding/binary"

	"ashs/internal/aegis"
	"ashs/internal/sim"
)

// Costed data-movement helpers for the user-level protocol libraries.
// Each pass moves real bytes and charges the calling process the cycles
// the DECstation memory model assigns: per 32-bit word, a (cache-modeled)
// load, a store for copies, the loop overhead, and the checksum accumulate
// when integrated. These are the same primitive costs the DILP engines
// charge, so library passes and generated engines are directly comparable
// (Table IV).

// CksumData folds data into a 32-bit ones-complement accumulator
// (RFC 1071): big-endian 16-bit words, odd tail zero-padded. Pure
// computation — no cycles charged.
//
// The accumulator is the end-around-carry sum of acc and every halfword:
// 0 if all of them are 0, else the representative of their total modulo
// 2^32-1 in [1, 2^32-1]. So the halfwords can be summed in any grouping —
// here eight bytes a step, as two pairs of 16-bit lanes in a uint64 —
// and reduced once. A carry out of the low 32 bits lands on bit 32, which
// is worth 1 modulo 2^32-1, so it is not lost; the uint64 itself cannot
// wrap below 2^47 bytes of data.
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
	if total == 0 {
		return 0
	}
	return uint32((total-1)%0xffffffff) + 1
}

// FoldCksum reduces an accumulator to the 16-bit Internet checksum value
// (not yet complemented).
func FoldCksum(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint16(acc)
}

// passCost charges one streaming pass over n bytes whose byte o is read at
// base + index(off+o) — index being the striping DMA layout for striped
// sources, the identity otherwise — and, with store, written at dst+o: per
// 32-bit word a cache-modeled load, the optional store, the loop overhead
// and opCycles of ALU work. The cache is charged a contiguous run at a
// time: the whole pass, or for a striped source the words that start in
// one 16-byte data line.
func passCost(k *aegis.Kernel, base uint32, off int, striped bool, dst uint32, n int, store bool, opCycles int) sim.Time {
	if n <= 0 {
		return 0
	}
	cycles := sim.Time((n+3)/4) * sim.Time(k.Prof.LoopOverhead+opCycles)
	for o := 0; o < n; {
		at, run := off+o, n-o
		if striped {
			words := (aegis.StripeChunk - at%aegis.StripeChunk + 3) / 4
			run = min(run, 4*words)
			at = aegis.StripedIndex(at)
		}
		if store {
			cycles += k.Cache.CopyRange(base+uint32(at), dst+uint32(o), run)
		} else {
			cycles += k.Cache.LoadRange(base+uint32(at), run)
		}
		o += run
	}
	return cycles
}

// CopyRange copies [src, src+n) to [dst, dst+n) in host memory, charging
// process p. With cksum, the Internet checksum is integrated into the same
// pass (one traversal); the accumulator over the copied bytes is returned.
func CopyRange(p *aegis.Process, k *aegis.Kernel, src, dst uint32, n int, cksum bool) uint32 {
	op := 0
	if cksum {
		op = k.Prof.CksumOp
	}
	cycles := passCost(k, src, 0, false, dst, n, true, op)
	b := k.Bytes(src, n)
	copy(k.Bytes(dst, n), b)
	var acc uint32
	if cksum {
		acc = CksumData(0, b)
	}
	p.Compute(cycles)
	return acc
}

// CksumRange traverses [addr, addr+n) computing the checksum (no copy).
func CksumRange(p *aegis.Process, k *aegis.Kernel, addr uint32, n int) uint32 {
	p.Compute(passCost(k, addr, 0, false, 0, n, false, k.Prof.CksumOp))
	return CksumData(0, k.Bytes(addr, n))
}

// framePassCost is passCost over frame payload from offset off. Striped
// (Ethernet) frames cost slightly more per line, as the generated strided
// loops do.
func framePassCost(f Frame, off int, dst uint32, n int, store bool, opCycles int) sim.Time {
	cycles := passCost(f.k, f.Entry.Addr, off, f.Striped, dst, n, store, opCycles)
	if f.Striped {
		cycles += sim.Time(n / aegis.StripeChunk) // line-skip index update
	}
	return cycles
}

// CopyFromFrame copies n bytes of frame payload (from offset off) to dst,
// charging p; with cksum the checksum is integrated. The checksum is taken
// over the destination once the bytes are there, which for a destination
// overlapping the payload is what was copied, not what is left of the
// source.
func CopyFromFrame(p *aegis.Process, f Frame, off int, dst uint32, n int, cksum bool) uint32 {
	op := 0
	if cksum {
		op = f.k.Prof.CksumOp
	}
	cycles := framePassCost(f, off, dst, n, true, op)
	d := f.k.Bytes(dst, n)
	f.Bytes(d, off, n)
	var acc uint32
	if cksum {
		acc = CksumData(0, d)
	}
	p.Compute(cycles)
	return acc
}

// CksumFromFrame traverses n bytes of frame payload computing the
// checksum in place (the "in place, with checksum" receive variant).
func CksumFromFrame(p *aegis.Process, f Frame, off int, n int) uint32 {
	cycles := framePassCost(f, off, 0, n, false, f.k.Prof.CksumOp)
	acc := f.cksum(off, n)
	p.Compute(cycles)
	return acc
}
