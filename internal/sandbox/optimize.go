// SFI check optimizer: a static-analysis pass over the verified program
// that emits the same protection as instrumentNaive with fewer dynamic
// instructions. Three transformations, all proven against the naive
// instrumentation by the differential fuzz tests:
//
//  1. Check elision. A passed bounds check certifies one point address
//     reg+imm; because the SFI region is a single contiguous range, two
//     certified points at most analysis.MaxCertSpan apart certify every
//     offset between them. Direct memory ops in a basic block that share
//     an unmodified base register therefore form a group needing at most
//     two check pairs (the hull endpoints), and a forward dataflow over
//     CheckSets elides even those when a dominating check on every path
//     already covers them. Divide checks are elided when the interval
//     analysis proves the divisor nonzero.
//
//  2. Check hoisting. A group anchor inside a loop whose base register is
//     never written in the loop, and whose block dominates every latch and
//     every exit-edge source, performs the same check with the same
//     register value on every iteration; its endpoint checks move to a
//     preheader that runs once per loop entry.
//
//  3. Budget coarsening. A loop whose trip count analysis.TripBound proves
//     drains trips x its body length from the software budget once in the
//     preheader instead of per iteration at the latch.
//
// With a Policy.Profile attached (the DCG loop, DESIGN.md §6), the profile
// selects among sites the static analyses here have already proven, so it
// can change cost, never semantics: divide checks on loop-invariant
// divisors hoist to the preheader when the divide is hot, and multi-block
// loops coarsen only when their header is hot (single-block loops always).
//
// Programs containing indirect jumps fall back to naive instrumentation:
// jump-table entry points would invalidate the dataflow's edge set.
package sandbox

import (
	"math"

	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

type optStats struct {
	elided     int // check sites present in naive output but not emitted
	hoisted    int // check pairs emitted in loop preheaders
	coarsened  int // loops whose budget checks collapsed into one drain
	divHoisted int // divide sites whose zero check moved to a preheader
}

// memGroup is a cluster of direct memory ops in one basic block sharing a
// base register that is not redefined between them, with an offset hull no
// wider than analysis.MaxCertSpan. Checking the hull endpoints certifies
// every member.
type memGroup struct {
	reg            vcode.Reg
	minImm, maxImm int64
	members        int
}

// preheader is the code block synthesized in front of a loop header.
type preheader struct {
	loop    *analysis.Loop
	hoisted []*memGroup
	coarse  *coarsePlan

	// hoistDivs lists loop-invariant divisor registers whose zero check
	// runs once here instead of at every in-loop divide (profile-guided;
	// see planPreheaders).
	hoistDivs []vcode.Reg
}

type coarsePlan struct {
	trips    int64
	headerPC int // original pc of the loop's first instruction
	latchPC  int // original pc of the backward branch
}

// buildGroups clusters the direct memory ops of every block. A group is
// open per base register and closes when the register is redefined, a call
// clobbers everything, the block ends, or adding an op would stretch the
// hull past MaxCertSpan.
func buildGroups(c *analysis.CFG) map[int]*memGroup {
	anchorOf := map[int]*memGroup{}
	for _, b := range c.Blocks {
		open := map[vcode.Reg]*memGroup{}
		for pc := b.Start; pc < b.End; pc++ {
			in := c.Prog.Insns[pc]
			if in.Op == vcode.OpCall {
				open = map[vcode.Reg]*memGroup{}
			}
			if in.Op.Is(vcode.Load|vcode.Store) && !in.Op.Is(vcode.Indexed) {
				imm := int64(in.Imm)
				g := open[in.Rs]
				if g != nil {
					lo, hi := g.minImm, g.maxImm
					if imm < lo {
						lo = imm
					}
					if imm > hi {
						hi = imm
					}
					if hi-lo <= analysis.MaxCertSpan {
						g.minImm, g.maxImm, g.members = lo, hi, g.members+1
					} else {
						g = nil
					}
				}
				if g == nil {
					g = &memGroup{reg: in.Rs, minImm: imm, maxImm: imm, members: 1}
					open[in.Rs] = g
					anchorOf[pc] = g
				}
			}
			in.Defs().Each(func(d vcode.Reg) { delete(open, d) })
		}
	}
	return anchorOf
}

// stepCheck is the shared transfer function of the availability dataflow
// and the emission walk: what an instruction does to the set of certified
// addresses. The gen rule at a group anchor certifies the whole hull
// regardless of the incoming facts (the emitted or elided checks together
// always establish it), which keeps the transfer monotone.
func stepCheck(s *analysis.CheckSet, in vcode.Insn, anchor *memGroup) {
	if in.Op == vcode.OpCall {
		s.Reset(false) // syscalls may write any register
		return
	}
	if anchor != nil {
		s.AddSpan(anchor.reg, anchor.minImm, anchor.maxImm)
	}
	if in.Op.Is(vcode.Indexed) {
		s.AddPair(in.Rs, in.Rt)
	}
	in.Defs().Each(s.KillReg)
}

// planPreheaders selects, per loop, the group anchors whose checks hoist
// and the budget coarsening, returning plans keyed by header start pc plus
// the set of divide pcs whose zero check the preheader absorbs. The profile
// (nil-safe) only gates sites that pass every static condition here, so a
// corrupt profile cannot smuggle in an unsound transform.
func planPreheaders(c *analysis.CFG, pol *Policy, anchorOf map[int]*memGroup,
	dom *analysis.Dom, loops []analysis.Loop, rng *analysis.Ranges,
	st *optStats) (map[int]*preheader, map[int]bool) {

	plans := map[int]*preheader{}
	hoistedDiv := map[int]bool{}
	for li := range loops {
		l := &loops[li]
		header := &c.Blocks[l.Header]

		// A preheader sits physically before the header, so an in-loop
		// block that falls through into the header (a fall-through back
		// edge) would execute it every iteration; skip such loops.
		ok := true
		for _, p := range l.Blocks {
			pb := &c.Blocks[p]
			if pb.End == header.Start && c.Prog.Insns[pb.Last()].Op != vcode.OpJmp {
				ok = false
			}
			for pc := pb.Start; pc < pb.End; pc++ {
				switch c.Prog.Insns[pc].Op {
				case vcode.OpCall, vcode.OpRet, vcode.OpJmpR:
					// Calls clobber registers mid-iteration and rets leave
					// without passing the latch; neither supports the
					// "same check every iteration" argument.
					ok = false
				}
			}
		}
		if !ok {
			continue
		}

		var defsInLoop vcode.RegSet
		for _, p := range l.Blocks {
			pb := &c.Blocks[p]
			for pc := pb.Start; pc < pb.End; pc++ {
				defsInLoop |= c.Prog.Insns[pc].Defs()
			}
		}

		dominatesLoopTail := func(b int) bool {
			for _, latch := range l.Latches {
				if !dom.Dominates(b, latch) {
					return false
				}
			}
			for _, e := range l.Exits {
				if !dom.Dominates(b, e) {
					return false
				}
			}
			return true
		}

		ph := &preheader{loop: l}
		for _, p := range l.Blocks {
			pb := &c.Blocks[p]
			if !dominatesLoopTail(p) {
				continue
			}
			for pc := pb.Start; pc < pb.End; pc++ {
				g := anchorOf[pc]
				if g != nil && !defsInLoop.Has(g.reg) {
					ph.hoisted = append(ph.hoisted, g)
				}
				// Profile-guided divide-check hoisting: a divide the profile
				// marks hot, with a loop-invariant divisor, in a block that
				// runs on every iteration, performs the same zero check with
				// the same register value every time — one preheader check
				// certifies them all. The same argument as memory-check
				// hoisting: if the loop is entered cleanly under naive
				// instrumentation the divisor was nonzero at the first
				// divide, hence at the preheader too (no in-loop defs).
				in := c.Prog.Insns[pc]
				if (in.Op == vcode.OpDivU || in.Op == vcode.OpRemU) &&
					pol.Profile.Hot(pc) &&
					!defsInLoop.Has(in.Rt) &&
					rng.Before(pc, in.Rt).Lo < 1 { // provably-nonzero sites elide statically
					hoistedDiv[pc] = true
					dup := false
					for _, r := range ph.hoistDivs {
						dup = dup || r == in.Rt
					}
					if !dup {
						ph.hoistDivs = append(ph.hoistDivs, in.Rt)
					}
				}
			}
		}

		// Multi-block loops coarsen only where the profile says the loop
		// runs; single-block ones always.
		if pol.Budget == BudgetSoftware && (len(l.Blocks) == 1 || pol.Profile.Hot(header.Start)) {
			if trips, tok := c.TripBound(l, dom, rng); tok {
				latch := &c.Blocks[l.Latches[0]]
				span := int64(latch.Last() - header.Start + 1)
				// The emitted body is at most 3 instructions per original
				// one, so trips*(4*span+8) bounds the final drain.
				if trips*(4*span+8) <= math.MaxInt32 {
					ph.coarse = &coarsePlan{trips: trips, headerPC: header.Start, latchPC: latch.Last()}
					st.coarsened++
				}
			}
		}

		if len(ph.hoisted) > 0 || len(ph.hoistDivs) > 0 || ph.coarse != nil {
			plans[header.Start] = ph
		}
	}
	return plans, hoistedDiv
}

// checkFacts runs the availability dataflow to its greatest fixpoint:
// block INs start optimistic (Top) except the entry, the meet at merges is
// intersection, and hoisted-check facts are injected into their loop
// header's IN (the preheader establishes them on every entry path, and
// nothing in the loop kills them). Verify has already rejected unreachable
// code, so every block's fixpoint IN derives from the concrete entry state.
// Each block's IN and OUT are made once and met into in place; a sweep's
// new OUT is built in a spare set and swapped in when it differs.
func checkFacts(c *analysis.CFG, anchorOf map[int]*memGroup, plans map[int]*preheader) []*analysis.CheckSet {
	n := len(c.Blocks)
	ins := make([]*analysis.CheckSet, n)
	outs := make([]*analysis.CheckSet, n)
	for b := 0; b < n; b++ {
		ins[b], outs[b] = analysis.NewCheckSet(), analysis.TopCheckSet()
	}
	out := analysis.NewCheckSet()
	order := c.RPO()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in := ins[b]
			in.Reset(b != 0) // entry: nothing certified yet
			for _, p := range c.Blocks[b].Preds {
				in.Meet(outs[p])
			}
			if ph, ok := plans[c.Blocks[b].Start]; ok {
				for _, g := range ph.hoisted {
					in.AddSpan(g.reg, g.minImm, g.maxImm)
				}
			}
			out.CopyFrom(in)
			for pc := c.Blocks[b].Start; pc < c.Blocks[b].End; pc++ {
				stepCheck(out, c.Prog.Insns[pc], anchorOf[pc])
			}
			if !out.Equal(outs[b]) {
				outs[b], out = out, outs[b]
				changed = true
			}
		}
	}
	return ins
}

// The checks planChecks keeps in front of an instruction.
const (
	checkLo uint8 = 1 << iota // indexed: stage and check; anchor: the hull's low pair; divide: the zero check
	checkHi                   // anchor: the hull's high pair
)

// planChecks walks the blocks as the emission does, under the availability
// facts, and decides which checks stay: it returns the checks kept in
// front of each instruction and the length of the code before budget
// checks, so the emission fills a slice made at its final length. It
// counts the elided and hoisted sites into st.
func planChecks(c *analysis.CFG, anchorOf map[int]*memGroup, plans map[int]*preheader,
	hoistedDiv map[int]bool, rng *analysis.Ranges, ins []*analysis.CheckSet,
	st *optStats) ([]uint8, int) {

	need := make([]uint8, len(c.Prog.Insns))
	size := PrologueLen
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		if ph, ok := plans[b.Start]; ok {
			if ph.coarse != nil {
				size++
			}
			for _, g := range ph.hoisted {
				size += 2
				st.hoisted++
				if g.maxImm != g.minImm {
					size += 2
					st.hoisted++
				}
			}
			size += len(ph.hoistDivs)
		}
		state := ins[bi].Clone()
		for pc := b.Start; pc < b.End; pc++ {
			in := c.Prog.Insns[pc]
			size++ // the instruction itself
			switch {
			case in.Op.Is(vcode.Indexed):
				if state.CoversPair(in.Rs, in.Rt) {
					st.elided++
				} else {
					need[pc] = checkLo
					size += 2
				}
			case in.Op.Is(vcode.Load | vcode.Store):
				if g := anchorOf[pc]; g != nil {
					pairs := 0
					if !state.Covers(g.reg, g.minImm) {
						need[pc] |= checkLo
						pairs++
					}
					if g.maxImm != g.minImm && !state.Covers(g.reg, g.maxImm) {
						need[pc] |= checkHi
						pairs++
					}
					st.elided += g.members - pairs
					size += 2 * pairs
				}
			case in.Op == vcode.OpDivU || in.Op == vcode.OpRemU:
				switch {
				case rng.Before(pc, in.Rt).Lo >= 1:
					st.elided++ // divisor provably nonzero
				case hoistedDiv[pc]:
					st.divHoisted++ // zero check runs once in the preheader
				default:
					need[pc] = checkLo
					size++
				}
			case in.Op == vcode.OpRet:
				size += EpilogueLen
			}
			stepCheck(state, in, anchorOf[pc])
		}
	}
	return need, size
}

// instrumentOptimized emits optimized SFI instrumentation for the program
// of c, returning ok=false when the program is outside the optimizer's
// domain (indirect jumps) and the caller should fall back to
// instrumentNaive.
func instrumentOptimized(c *analysis.CFG, pol *Policy) ([]vcode.Insn, []int, optStats, bool) {
	var st optStats
	p := c.Prog
	if c.HasIndirect {
		return nil, nil, st, false
	}
	anchorOf := buildGroups(c)
	dom := c.Dominators()
	loops := c.NaturalLoops(dom)
	rng := c.Ranges()
	plans, hoistedDiv := planPreheaders(c, pol, anchorOf, dom, loops, rng, &st)
	ins := checkFacts(c, anchorOf, plans)

	need, size := planChecks(c, anchorOf, plans, hoistedDiv, rng, ins, &st)
	out := make([]vcode.Insn, 0, size)
	outSrc := make([]int, 0, size) // original pc each emitted insn belongs to
	emit := func(src int, in vcode.Insn) {
		out = append(out, in)
		outSrc = append(outSrc, src)
	}
	emitPair := func(src int, reg vcode.Reg, imm int64) {
		emit(src, vcode.Insn{Op: vcode.OpSboxMask, Rd: vcode.RSbox, Rs: reg, Imm: int32(imm)})
		emit(src, vcode.Insn{Op: vcode.OpSboxChk, Rd: vcode.RSbox})
	}

	for i := 0; i < PrologueLen; i++ {
		emit(-1, vcode.Insn{Op: vcode.OpNop})
	}

	oldToNew := make([]int, len(p.Insns))
	preheaderPos := map[int]int{} // header orig pc -> emitted preheader start
	type coarseEmit struct {
		budIdx int // emitted index of the placeholder ChkBudget
		plan   *coarsePlan
	}
	var coarses []coarseEmit
	suppressedLatch := map[int]bool{} // orig pc of latch branches with no inline check

	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		if ph, ok := plans[b.Start]; ok {
			preheaderPos[b.Start] = len(out)
			if ph.coarse != nil {
				coarses = append(coarses, coarseEmit{budIdx: len(out), plan: ph.coarse})
				suppressedLatch[ph.coarse.latchPC] = true
				emit(-1, vcode.Insn{Op: vcode.OpChkBudget}) // Imm patched below
			}
			for _, g := range ph.hoisted {
				emitPair(-1, g.reg, g.minImm)
				if g.maxImm != g.minImm {
					emitPair(-1, g.reg, g.maxImm)
				}
			}
			for _, r := range ph.hoistDivs {
				emit(-1, vcode.Insn{Op: vcode.OpChkDiv, Rs: r})
			}
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := p.Insns[pc]
			oldToNew[pc] = len(out)
			switch {
			case in.Op.Is(vcode.Indexed):
				if need[pc]&checkLo == 0 {
					emit(pc, in)
				} else {
					emit(pc, vcode.Insn{Op: vcode.OpAddU, Rd: vcode.RSbox, Rs: in.Rs, Rt: in.Rt})
					emit(pc, vcode.Insn{Op: vcode.OpSboxChk, Rd: vcode.RSbox})
					rewritten := in
					rewritten.Rs = vcode.RSbox
					rewritten.Rt = vcode.RZero
					emit(pc, rewritten)
				}
			case in.Op.Is(vcode.Load | vcode.Store):
				if g := anchorOf[pc]; g != nil {
					if need[pc]&checkLo != 0 {
						emitPair(pc, g.reg, g.minImm)
					}
					if need[pc]&checkHi != 0 {
						emitPair(pc, g.reg, g.maxImm)
					}
				}
				// The access itself runs in original form: its address is
				// inside the certified hull.
				emit(pc, in)
			case in.Op == vcode.OpDivU || in.Op == vcode.OpRemU:
				if need[pc]&checkLo != 0 {
					emit(pc, vcode.Insn{Op: vcode.OpChkDiv, Rs: in.Rt})
				}
				emit(pc, in)
			case in.Op == vcode.OpRet:
				for i := 0; i < EpilogueLen; i++ {
					emit(pc, vcode.Insn{Op: vcode.OpNop})
				}
				emit(pc, in)
			default:
				emit(pc, in)
			}
		}
	}

	// Retarget static branches. A branch into a loop header goes to the
	// preheader when it is an entry edge, and straight to the header when
	// it is a back edge (iterations must not repeat the preheader).
	// Fall-through entry edges pass through the preheader naturally.
	for i := range out {
		if !out[i].Op.Is(vcode.Branch) {
			continue
		}
		t := int(out[i].Target)
		if php, ok := preheaderPos[t]; ok {
			src := outSrc[i]
			if src < 0 || !plans[t].loop.Contains(c.BlockOf[src]) {
				out[i].Target = int32(php)
				continue
			}
		}
		out[i].Target = int32(oldToNew[t])
	}

	if pol.Budget == BudgetSoftware {
		var shift []int
		out, shift = insertBudgetChecks(out, oldToNew, func(i int) bool { return suppressedLatch[outSrc[i]] })
		// Patch the coarse drains now that final positions are known:
		// trips x the emitted body length [header, latch branch].
		for _, ce := range coarses {
			perIter := int64(oldToNew[ce.plan.latchPC]) - int64(oldToNew[ce.plan.headerPC]) + 1
			total := ce.plan.trips * perIter
			// planPreheaders bounded trips*(4*span+8); the emitted body
			// is at most 3 insns per original, so total fits.
			out[shift[ce.budIdx]].Imm = int32(total)
		}
	}

	return out, oldToNew, st, true
}
