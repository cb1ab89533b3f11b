package pipe

import (
	"encoding/binary"

	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// HandIntegrated is the "C integrated" strategy of Table IV: a
// hand-written loop that copies a buffer while folding in the Internet
// checksum and (optionally) a byteswap, integrated by the programmer rather
// than by the DILP compiler. It performs the same work and charges the same
// primitive costs as carefully hand-optimized C would: one load, one store,
// one loop update and the ALU ops per word.
//
// It returns the 32-bit checksum accumulator (caller folds with Fold16).
func HandIntegrated(m *vcode.Machine, src, dst uint32, n int, withBswap bool) (uint32, sim.Time, error) {
	prof := m.Prof
	var cycles sim.Time
	load := func(addr uint32) (uint32, error) {
		if m.Cache != nil {
			cycles += m.Cache.Load(addr)
		} else {
			cycles += sim.Time(prof.LoadHit)
		}
		return vcode.Load32(m.Mem, addr)
	}
	store := func(addr uint32, v uint32) error {
		if m.Cache != nil {
			cycles += m.Cache.Store(addr)
		} else {
			cycles += sim.Time(prof.StoreCycles)
		}
		return vcode.Store32(m.Mem, addr, v)
	}
	var acc uint32
	for off := 0; off < n; off += 4 {
		v, err := load(src + uint32(off))
		if err != nil {
			return 0, cycles, err
		}
		acc = cksumStep(acc, v)
		cycles += sim.Time(prof.CksumOp)
		if withBswap {
			v = v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
			cycles += sim.Time(prof.BswapOp)
		}
		if err := store(dst+uint32(off), v); err != nil {
			return 0, cycles, err
		}
		cycles += sim.Time(prof.LoopOverhead)
	}
	m.Charge(cycles)
	return acc, cycles, nil
}

// cksumStep is one 32-bit ones-complement accumulate with end-around carry.
func cksumStep(acc, v uint32) uint32 {
	s := uint64(acc) + uint64(v)
	return uint32(s) + uint32(s>>32)
}

// LibCksumPass is the classic standalone Internet-checksum routine a 1996
// protocol library links: a halfword (16-bit) loop in the style of BSD's
// in_cksum. It is what the *separate* (non-integrated) strategy of
// Table IV pays for the checksum traversal — the 32-bit
// add-with-carry trick belongs to the VCODE extensions and hence to the
// integrated paths. Charges per halfword: one (cache-modeled) 16-bit
// load, two ALU ops (add + carry fold), and half the loop overhead.
func LibCksumPass(m *vcode.Machine, addr uint32, n int) (uint32, sim.Time, error) {
	prof := m.Prof
	var cycles sim.Time
	var acc uint32
	for off := 0; off < n; off += 2 {
		a := addr + uint32(off)
		if m.Cache != nil {
			cycles += m.Cache.Load(a)
		} else {
			cycles += sim.Time(prof.LoadHit)
		}
		b, err := m.Mem.Load(a, 2)
		if err != nil {
			return 0, cycles, err
		}
		acc = cksumStep(acc, uint32(binary.BigEndian.Uint16(b)))
		cycles += 2 + sim.Time(prof.LoopOverhead)/2
	}
	m.Charge(cycles)
	return acc, cycles, nil
}
