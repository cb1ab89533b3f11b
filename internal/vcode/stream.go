package vcode

import (
	"encoding/binary"

	"ashs/internal/mach"
	"ashs/internal/sim"
)

// The streaming-loop executor. The DILP compiler exists so that a message
// is traversed by one integrated copy+checksum loop (Section III-C of the
// paper); run would dispatch that loop's control, addressing, bounds tests
// and cache charges once per word. When a taken bltu closes the loop
//
//	L:  ld32x   w, [a+i]
//	    cksum32 acc, w
//	    st32x   [b+i], w
//	    addiu   i, i, 4
//	    bltu    i, n, L
//
// with i none of w, a or b, w none of a, n, b or acc, and acc none of a, i,
// n or b, stream runs k whole iterations in bulk. With dst <= src or the
// two streams apart, each load reads the source as it was before the loop
// (a store at dst+j lands outside the source or at or below src+j, on a
// word already loaded), so the k iterations leave acc the end-around sum of
// acc and the k source words — 0 if all are 0, else the representative of
// their total modulo 2^32-1 in [1, 2^32-1], which CksumWords computes eight
// bytes a step — w the last of them, dst a copy of the source and i
// advanced by 4k. A dst inside (src, src+4k) loads words the loop has
// stored, which a copy does not: there k is 0. Cycles are the
// per-iteration constant times k plus one Cache.CopyRange, which mach
// defines as the per-word Load/Store sequence run would have issued.
//
// k is clipped so that nothing observable can differ from interpretation:
// to the trips left (the first k-1 branches are taken, the k-th is
// re-evaluated by run) and to the budgets (insnsLeft/5, and cyclesLeft
// over a bound on what one iteration can have charged at any budget test,
// a miss and a store per word). Then the memory is asked for both streams
// whole, 4k bytes each: the source with Load, the destination with Store
// (under a Journal, its pre-image). If either stream is unaligned or is not
// lent — it leaves the memory, crosses a segment's end, touches an absent
// page, would wrap the address space — k is 0. k = 0 changes nothing; every
// fault and every budget abort is therefore still raised by run, on the
// same pc with the same counters, and a loop that is going to fault is
// interpreted up to the fault.
//
// It is kept out of line so that run's register allocation is what it was.
//
//go:noinline
func (m *Machine) stream(code []Insn, tail int, mem Memory, cache *mach.Cache, counts []uint64,
	insnsLeft int64, cyclesLeft sim.Time) (int64, sim.Time) {
	// run has checked that code[tail-4] is a ld32x.
	const perIter = 5
	head := tail - 4
	ld, ck, st, adv, br := &code[head], &code[head+1], &code[head+2], &code[head+3], &code[tail]
	w, a, i, n, acc, b := ld.Rd, ld.Rs, br.Rs, br.Rt, ck.Rd, st.Rs
	if ck.Op != OpCksum32 || st.Op != OpSt32X || adv.Op != OpAddIU || ld.Rt != i || ck.Rs != w ||
		st.Rt != i || st.Rd != w || adv.Rd != i || adv.Rs != i || adv.Imm != 4 ||
		i == w || i == a || i == b || w == a || w == n || w == b || w == acc ||
		acc == a || acc == i || acc == n || acc == b {
		return insnsLeft, cyclesLeft
	}

	// One iteration's cycles apart from the cache, and the most it can have
	// charged when run tests the budget (after an instruction's issue cost,
	// before its memory cost or extra).
	alu, cksum := sim.Time(m.Prof.ALUOp), sim.Time(m.Prof.CksumOp)
	load, store := sim.Time(m.Prof.LoadHit), sim.Time(m.Prof.StoreCycles)
	if cache != nil {
		load, store = cache.WorstWord()
	}
	atTest := max(alu, 0)
	worst := 2*atTest + max(atTest, load) + max(atTest, cksum) + max(atTest, store)

	r := &m.Regs
	src, dst := r[a]+r[i], r[b]+r[i]
	k := min(int64((uint64(r[n])-uint64(r[i])+3)/4), insnsLeft/perIter)
	if worst > 0 {
		k = min(k, int64(cyclesLeft/worst))
	}
	nbytes := int(4 * k)
	if k <= 0 || (src|dst)&3 != 0 || src < dst && int(dst-src) < nbytes {
		return insnsLeft, cyclesLeft
	}
	from, err := mem.Load(src, nbytes)
	if err != nil {
		return insnsLeft, cyclesLeft
	}
	to, err := mem.Store(dst, nbytes)
	if err != nil {
		return insnsLeft, cyclesLeft
	}
	r[acc] = CksumWords(r[acc], from)
	r[w] = binary.BigEndian.Uint32(from[nbytes-4:])
	copy(to, from)
	r[i] += uint32(nbytes)

	cycles := sim.Time(k) * (2*alu + cksum)
	if cache == nil { // every access costs what the profile says
		cycles += sim.Time(k) * (load + store)
	} else {
		cycles += cache.CopyRange(src, dst, nbytes)
	}
	for pc := head; pc <= tail && pc < len(counts); pc++ {
		counts[pc] += uint64(k)
	}
	m.Streamed += k * perIter
	return insnsLeft - k*perIter, cyclesLeft - cycles
}
