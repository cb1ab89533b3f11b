package vcode

import (
	"encoding/binary"
	"math/bits"

	"ashs/internal/mach"
	"ashs/internal/sim"
)

// The streaming-loop executor. The DILP compiler exists so that a message
// is traversed by one generated loop (Section III-C of the paper); run
// would dispatch that loop's control, addressing, bounds tests and cache
// charges once per word. When a taken bltu closes a loop of the shape
//
//	L:  ld32x  w, [a+i]
//	    ...                 register-only ops: nop, movi, mov, the unsigned
//	                        ALU and immediate forms but divu/remu, cksum32,
//	                        bswap; none writes a, i, n or b
//	    st32x  [b+i], v     optional
//	    addiu  i, i, 4
//	    bltu   i, n, L
//
// with w, a and b all different from i and w not a, n or b, stream runs k
// whole iterations itself: per word a big-endian load into w, the mid ops
// applied to the machine's own register file, a big-endian store of v and
// i += 4, in program order, so src and dst may overlap. Cycles are the
// per-iteration constant times k plus one Cache.CopyRange (LoadRange
// without a store), which mach defines as the per-word Load/Store sequence
// run would have issued.
//
// k is clipped so that nothing observable can differ from interpretation:
// to the trips left (the first k-1 branches are taken, the k-th is
// re-evaluated by run) and to the budgets (insnsLeft/len, and cyclesLeft
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
// One shape has a bulk body: the DILP copy+checksum engine,
//
//	L:  ld32x  w, [a+i]; cksum32 acc, w; st32x [b+i], w; addiu i, i, 4; bltu i, n, L
//
// with acc not w, and dst <= src or the two streams apart. Every byte the
// benchmark workloads stream has this shape: 52.6 MB per chaos repetition,
// 18.8 MB per tcp-bulk one, none in the other five. There each load reads
// the source as it was before the loop (a store at dst+j lands outside the
// source or at or below src+j, on a word already loaded), so the k
// iterations leave acc the end-around sum of acc and the k source words —
// 0 if all are 0, else the representative of their total modulo 2^32-1 in
// [1, 2^32-1], which CksumWords computes eight bytes a step — w the last of
// them, and dst a copy of the source: copy's memmove. A dst inside
// (src, src+4k) is left to the per-word body: there a word loop in program
// order loads words it has stored, which memmove does not.
//
// The match is made on the live instructions at every engagement, in
// O(loop length), and nothing is kept: there is no state on Program to go
// stale when the sandboxer rewrites in place or to share between machines.
// It covers every engine pipe.Compile emits and the checksum loop of
// hotpath.NewHandlerProgram, over any Memory. Not matched, and interpreted
// as before: SFI-instrumented loops (sbox.mask/sbox.chk/chk.budget are not
// register-only ops).
//
// It is kept out of line so that run's register allocation is what it was.
//
//go:noinline
func (m *Machine) stream(code []Insn, tail int, mem Memory, cache *mach.Cache, counts []uint64,
	insnsLeft int64, cyclesLeft sim.Time) (int64, sim.Time) {
	// run has checked that head < tail-1 and that code[head] is a ld32x.
	br := &code[tail]
	head := int(br.Target)
	ld, adv := &code[head], &code[tail-1]
	w, a, i, n := ld.Rd, ld.Rs, br.Rs, br.Rt
	if ld.Rt != i || adv.Op != OpAddIU || adv.Rd != i || adv.Rs != i || adv.Imm != 4 ||
		a == i || w == a || w == i || w == n {
		return insnsLeft, cyclesLeft
	}
	mid, b := code[head+1:tail-1], a // without a store, b is a: nothing more to check
	var st *Insn
	if last := len(mid) - 1; last >= 0 && mid[last].Op == OpSt32X {
		st, mid = &mid[last], mid[:last]
		if b = st.Rs; st.Rt != i || b == i || w == b {
			return insnsLeft, cyclesLeft
		}
	}

	// One iteration's cycles apart from the cache, and the most it can have
	// charged when run tests the budget (after an instruction's issue cost,
	// before its memory cost or extra).
	alu := sim.Time(m.Prof.ALUOp)
	loadWorst, storeWorst := sim.Time(m.Prof.LoadHit), sim.Time(m.Prof.StoreCycles)
	if cache != nil {
		loadWorst, storeWorst = cache.WorstWord()
	}
	atTest := max(alu, 0)
	fixed, worst := 2*alu, 2*atTest+max(atTest, loadWorst)
	if st != nil {
		worst += max(atTest, storeWorst)
	} else {
		storeWorst = 0
	}
	for j := range mid {
		in := &mid[j]
		d, extra := in.Rd, sim.Time(0)
		switch in.Op {
		case OpNop:
			d = w // writes nothing; w is none of the four
		case OpMovI, OpMov, OpAddU, OpSubU, OpAnd, OpOr, OpXor, OpNor, OpSll, OpSrl, OpSltU, OpMulU,
			OpAddIU, OpAndI, OpOrI, OpXorI, OpSllI, OpSrlI, OpSltIU:
		case OpCksum32:
			extra = sim.Time(m.Prof.CksumOp) - alu
		case OpBswap:
			extra = sim.Time(m.Prof.BswapOp) - alu
		default:
			return insnsLeft, cyclesLeft
		}
		if d == a || d == i || d == n || d == b {
			return insnsLeft, cyclesLeft
		}
		fixed += alu + extra
		worst += max(atTest, alu+extra)
	}

	r := &m.Regs
	perIter := int64(tail - head + 1)
	src, dst := r[a]+r[i], r[b]+r[i]
	k := min(int64((uint64(r[n])-uint64(r[i])+3)/4), insnsLeft/perIter)
	if worst > 0 {
		k = min(k, int64(cyclesLeft/worst))
	}
	if k <= 0 || (src|dst)&3 != 0 {
		return insnsLeft, cyclesLeft
	}
	nbytes := int(4 * k)
	from, err := mem.Load(src, nbytes)
	if err != nil {
		return insnsLeft, cyclesLeft
	}
	var to []byte
	if st != nil {
		if to, err = mem.Store(dst, nbytes); err != nil {
			return insnsLeft, cyclesLeft
		}
	}
	if st != nil && st.Rd == w && len(mid) == 1 && mid[0].Op == OpCksum32 && mid[0].Rs == w && mid[0].Rd != w &&
		(dst <= src || dst-src >= uint32(nbytes)) {
		acc := mid[0].Rd
		r[acc] = CksumWords(r[acc], from)
		r[w] = binary.BigEndian.Uint32(from[nbytes-4:])
		copy(to, from)
		r[i] += uint32(nbytes)
	} else {
		for off := 0; off < nbytes; off += 4 {
			r[w] = binary.BigEndian.Uint32(from[off:])
			for j := range mid {
				// run's cases for the ops matched above, without pc, budget,
				// memory or control flow.
				switch in := &mid[j]; in.Op {
				case OpMovI:
					r[in.Rd] = uint32(in.Imm)
				case OpMov:
					r[in.Rd] = r[in.Rs]
				case OpAddU:
					r[in.Rd] = r[in.Rs] + r[in.Rt]
				case OpSubU:
					r[in.Rd] = r[in.Rs] - r[in.Rt]
				case OpAnd:
					r[in.Rd] = r[in.Rs] & r[in.Rt]
				case OpOr:
					r[in.Rd] = r[in.Rs] | r[in.Rt]
				case OpXor:
					r[in.Rd] = r[in.Rs] ^ r[in.Rt]
				case OpNor:
					r[in.Rd] = ^(r[in.Rs] | r[in.Rt])
				case OpSll:
					r[in.Rd] = r[in.Rs] << (r[in.Rt] & 31)
				case OpSrl:
					r[in.Rd] = r[in.Rs] >> (r[in.Rt] & 31)
				case OpSltU:
					r[in.Rd] = b2u(r[in.Rs] < r[in.Rt])
				case OpMulU:
					r[in.Rd] = r[in.Rs] * r[in.Rt]
				case OpAddIU:
					r[in.Rd] = r[in.Rs] + uint32(in.Imm)
				case OpAndI:
					r[in.Rd] = r[in.Rs] & uint32(in.Imm)
				case OpOrI:
					r[in.Rd] = r[in.Rs] | uint32(in.Imm)
				case OpXorI:
					r[in.Rd] = r[in.Rs] ^ uint32(in.Imm)
				case OpSllI:
					r[in.Rd] = r[in.Rs] << (uint32(in.Imm) & 31)
				case OpSrlI:
					r[in.Rd] = r[in.Rs] >> (uint32(in.Imm) & 31)
				case OpSltIU:
					r[in.Rd] = b2u(r[in.Rs] < uint32(in.Imm))
				case OpCksum32:
					r[in.Rd] = CksumAdd(r[in.Rd], r[in.Rs])
				case OpBswap:
					r[in.Rd] = bits.ReverseBytes32(r[in.Rs])
				}
			}
			if st != nil {
				binary.BigEndian.PutUint32(to[off:], r[st.Rd])
			}
			r[i] += 4
		}
	}

	cycles := sim.Time(k) * fixed
	switch {
	case cache == nil: // every access costs what the profile says
		cycles += sim.Time(k) * (loadWorst + storeWorst)
	case st != nil:
		cycles += cache.CopyRange(src, dst, nbytes)
	default:
		cycles += cache.LoadRange(src, nbytes)
	}
	for pc := head; pc <= tail && pc < len(counts); pc++ {
		counts[pc] += uint64(k)
	}
	m.Streamed += k * perIter
	return insnsLeft - k*perIter, cyclesLeft - cycles
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
