package pipe

import (
	"encoding/binary"
	"math/bits"

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
// n must be a multiple of 4, as for Engine.Run, and dst may not lie inside
// (src, src+n), where the word loop would load words it had stored. The
// bytes move as one lent range each way and the checksum is
// vcode.CksumWords, the streaming executor's kernel; the cache is charged
// with one CopyRange, which is the per-word Load/Store sequence.
//
// It returns the 32-bit checksum accumulator (caller folds with vcode.Fold16).
func HandIntegrated(m *vcode.Machine, src, dst uint32, n int, withBswap bool) (uint32, sim.Time, error) {
	if n%4 != 0 {
		return 0, 0, &vcode.Fault{Kind: vcode.FaultUnaligned, Msg: "hand-integrated length not a multiple of 4"}
	}
	if dst > src && dst-src < uint32(n) {
		return 0, 0, &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: dst, Msg: "hand-integrated dst overlaps src ahead of it"}
	}
	from, err := m.Mem.Load(src, n)
	if err != nil {
		return 0, 0, err
	}
	to, err := m.Mem.Store(dst, n)
	if err != nil {
		return 0, 0, err
	}
	prof := m.Prof
	acc := vcode.CksumWords(0, from)
	perWord := prof.CksumOp + prof.LoopOverhead
	if withBswap {
		perWord += prof.BswapOp
		for off := 0; off < n; off += 4 {
			binary.BigEndian.PutUint32(to[off:], bits.ReverseBytes32(binary.BigEndian.Uint32(from[off:])))
		}
	} else {
		copy(to, from)
	}
	words := sim.Time(n / 4)
	cycles := words * sim.Time(perWord)
	if m.Cache != nil {
		cycles += m.Cache.CopyRange(src, dst, n)
	} else {
		cycles += words * sim.Time(prof.LoadHit+prof.StoreCycles)
	}
	m.Charge(cycles)
	return acc, cycles, nil
}

// LibCksumPass is the classic standalone Internet-checksum routine a 1996
// protocol library links: a halfword (16-bit) loop in the style of BSD's
// in_cksum. It is what the *separate* (non-integrated) strategy of
// Table IV pays for the checksum traversal — the 32-bit
// add-with-carry trick belongs to the VCODE extensions and hence to the
// integrated paths. Charges per halfword: one (cache-modeled) 16-bit
// load, two ALU ops (add + carry fold), and half the loop overhead. The
// cache is charged one Load per halfword (LoadHalfwords), not one per word
// (LoadRange): the halfword loop loads every word twice.
//
// An odd tail is zero-padded, as vcode.CksumData pads it; the byte after
// the range is not read. It returns a 32-bit accumulator whose
// vcode.Fold16 is the checksum of the range.
func LibCksumPass(m *vcode.Machine, addr uint32, n int) (uint32, sim.Time, error) {
	data, err := m.Mem.Load(addr, n)
	if err != nil {
		return 0, 0, err
	}
	prof := m.Prof
	cycles := sim.Time((n+1)/2) * (2 + sim.Time(prof.LoopOverhead)/2)
	if m.Cache != nil {
		cycles += m.Cache.LoadHalfwords(addr, n)
	} else {
		cycles += sim.Time((n+1)/2) * sim.Time(prof.LoadHit)
	}
	m.Charge(cycles)
	var tail [4]byte
	copy(tail[:], data[n&^3:])
	return vcode.CksumWords(vcode.CksumWords(0, data[:n&^3]), tail[:]), cycles, nil
}
