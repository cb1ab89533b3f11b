package reopt

import (
	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// TripBoundMultiBlock tries to prove an *exact* iteration count for a
// multi-block natural loop — the shape analysis.TripBound deliberately
// refuses (it handles only single-block loops). Exactness is what makes a
// coarse one-shot budget drain equivalent to the naive per-latch drain at
// every budget level, so the conditions are strict:
//
//   - a single latch whose final instruction is `bltu i, n, header` and
//     which sits after the header in program order (so the naive
//     instrumenter inserts exactly one budget check there);
//   - the latch is the loop's only exit: no early-out edges, hence the
//     latch condition alone decides termination and executes exactly
//     ceil((n-a)/step) times;
//   - exactly one def of i in the whole loop, `addiu i, i, c` (c > 0), in
//     a block dominating the latch — together with the no-inner-cycle
//     condition below that makes the increment run exactly once per
//     iteration;
//   - n has no defs in the loop, and both i and n have exact entry values
//     (meet of the interval analysis over the header's non-loop preds);
//   - no OpCall (clobbers everything), no OpRet/OpJmpR, and every branch
//     in the loop other than the latch is strictly forward — this rules
//     out nested loops, so the latch is the only drain site the naive
//     pass instruments inside the body.
//
// The exactness argument: all loop blocks lie in [header.Start, latch]
// (a block past the latch could only rejoin it through a second backward
// branch), the body is acyclic except for the latch edge, and the only
// exit is the latch's fall-through, so every entry runs the latch test
// exactly `trips` times with i advancing by step each time.
func TripBoundMultiBlock(c *analysis.CFG, d *analysis.Dom, l *analysis.Loop, r *analysis.Ranges) (int64, bool) {
	if len(l.Latches) != 1 {
		return 0, false
	}
	latch := l.Latches[0]
	lb := &c.Blocks[latch]
	header := &c.Blocks[l.Header]
	last := c.Prog.Insns[lb.Last()]
	if last.Op != vcode.OpBltU || int(last.Target) != header.Start || lb.Last() <= header.Start {
		return 0, false
	}
	// The latch must be the only exit block.
	for _, e := range l.Exits {
		if e != latch {
			return 0, false
		}
	}
	i, bound := last.Rs, last.Rt

	// Scan every loop block: count defs, locate the increment, and reject
	// calls, rets, indirect jumps, and non-latch backward branches.
	defsOf := map[vcode.Reg]int{}
	incAt, incBlock := -1, -1
	for _, bi := range l.Blocks {
		b := &c.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			in := c.Prog.Insns[pc]
			switch {
			case in.Op == vcode.OpCall || in.Op == vcode.OpRet || in.Op == vcode.OpJmpR:
				return 0, false
			case in.Op.Is(vcode.Branch) && pc != lb.Last() && int(in.Target) <= pc:
				return 0, false
			}
			in.Defs().Each(func(d vcode.Reg) { defsOf[d]++ })
			if in.Op == vcode.OpAddIU && in.Rd == i && in.Rs == i && in.Imm > 0 {
				incAt, incBlock = pc, bi
			}
		}
	}
	if defsOf[bound] != 0 || defsOf[i] != 1 || incAt < 0 || !d.Dominates(incBlock, latch) {
		return 0, false
	}
	a, okA := c.EntryValue(l, r, i)
	n, okN := c.EntryValue(l, r, bound)
	if !okA || !okN {
		return 0, false
	}
	step := int64(c.Prog.Insns[incAt].Imm)
	var trips int64
	if int64(n) <= int64(a) {
		trips = 1
	} else {
		trips = (int64(n) - int64(a) + step - 1) / step
	}
	if trips < 1 || trips > analysis.MaxTrips || int64(a)+trips*step > int64(^uint32(0)) {
		return 0, false
	}
	return trips, true
}
