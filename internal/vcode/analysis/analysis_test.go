package analysis

import (
	"testing"

	"ashs/internal/vcode"
)

// diamond builds:
//
//	0: movi r8, 1
//	1: beq  r8, r0, @4
//	2: movi r9, 2
//	3: jmp  @5
//	4: movi r9, 3
//	5: mov  r2, r9
//	6: ret
func diamond(t *testing.T) *vcode.Program {
	t.Helper()
	b := vcode.NewBuilder("diamond")
	x, y := b.Temp(), b.Temp()
	els, join := b.NewLabel(), b.NewLabel()
	b.MovI(x, 1)
	b.Beq(x, vcode.RZero, els)
	b.MovI(y, 2)
	b.Jmp(join)
	b.Bind(els)
	b.MovI(y, 3)
	b.Bind(join)
	b.Mov(vcode.RRet, y)
	b.Ret()
	return b.MustAssemble()
}

// countedLoop builds the canonical counted copy loop:
//
//	0: movi i, 0
//	1: movi n, 40
//	2: top: ld32x v, [src+i]
//	3: st32x [dst+i], v
//	4: addiu i, i, 4
//	5: bltu i, n, top
//	6: ret
func countedLoop(t *testing.T) *vcode.Program {
	t.Helper()
	b := vcode.NewBuilder("counted")
	i, n, v := b.Temp(), b.Temp(), b.Temp()
	src, dst := vcode.RArg0, vcode.RArg1
	top := b.NewLabel()
	b.MovI(i, 0)
	b.MovI(n, 40)
	b.Bind(top)
	b.Ld32X(v, src, i)
	b.St32X(dst, i, v)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.Ret()
	return b.MustAssemble()
}

func TestCFGDiamond(t *testing.T) {
	p := diamond(t)
	c := Build(p)
	if len(c.Blocks) != 4 {
		t.Fatalf("diamond: %d blocks, want 4\n%s", len(c.Blocks), p)
	}
	// Block boundaries.
	wantStarts := []int{0, 2, 4, 5}
	for i, s := range wantStarts {
		if c.Blocks[i].Start != s {
			t.Errorf("block %d starts at %d, want %d", i, c.Blocks[i].Start, s)
		}
	}
	// Edges: 0 -> {1, 2}; 1 -> 3; 2 -> 3; 3 -> {}.
	wantSuccs := map[int][]int{0: {2, 1}, 1: {3}, 2: {3}, 3: {}}
	for b, want := range wantSuccs {
		got := c.Blocks[b].Succs
		if len(got) != len(want) {
			t.Errorf("block %d succs %v, want %v", b, got, want)
			continue
		}
		seen := map[int]bool{}
		for _, s := range got {
			seen[s] = true
		}
		for _, w := range want {
			if !seen[w] {
				t.Errorf("block %d succs %v missing %d", b, got, w)
			}
		}
	}
	if c.HasIndirect || len(c.FallsOff) != 0 {
		t.Errorf("diamond: HasIndirect=%v FallsOff=%v", c.HasIndirect, c.FallsOff)
	}
	reach := c.Reachable()
	for b, r := range reach {
		if !r {
			t.Errorf("block %d unreachable", b)
		}
	}
}

func TestCFGUnreachableAndFallsOff(t *testing.T) {
	// 0: jmp @2 / 1: movi r8,1 (unreachable) / 2: ret
	p := &vcode.Program{Name: "skip", Insns: []vcode.Insn{
		{Op: vcode.OpJmp, Target: 2},
		{Op: vcode.OpMovI, Rd: 8, Imm: 1},
		{Op: vcode.OpRet},
	}}
	c := Build(p)
	reach := c.Reachable()
	if reach[c.BlockOf[1]] {
		t.Error("dead middle block reported reachable")
	}
	if !reach[c.BlockOf[2]] {
		t.Error("ret block reported unreachable")
	}

	// A program whose last instruction is not a terminator falls off.
	q := &vcode.Program{Name: "falloff", Insns: []vcode.Insn{
		{Op: vcode.OpMovI, Rd: 8, Imm: 1},
	}}
	qc := Build(q)
	if len(qc.FallsOff) != 1 {
		t.Errorf("FallsOff=%v, want one block", qc.FallsOff)
	}
}

// TestTargetOutsideProgram: a static target outside the program is control
// leaving it, as a fall-through past the end is. Lint is advisory and runs
// before the verifier, so it must survive such a program.
func TestTargetOutsideProgram(t *testing.T) {
	for _, p := range []*vcode.Program{
		{Name: "beq @99", Insns: []vcode.Insn{{Op: vcode.OpBeq, Rs: 8, Target: 99}, {Op: vcode.OpRet}}},
		{Name: "jmp @-3", Insns: []vcode.Insn{{Op: vcode.OpJmp, Target: -3}, {Op: vcode.OpRet}}},
	} {
		c := Build(p)
		if len(c.FallsOff) != 1 || c.FallsOff[0] != 0 {
			t.Errorf("%s: FallsOff = %v, want the branch's block", p.Name, c.FallsOff)
		}
		Lint(p)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	p := diamond(t)
	c := Build(p)
	d := c.Dominators()
	join := c.BlockOf[5]
	for _, arm := range []int{c.BlockOf[2], c.BlockOf[4]} {
		if !d.Dominates(0, arm) {
			t.Errorf("entry does not dominate block %d", arm)
		}
		if d.Dominates(arm, join) {
			t.Errorf("arm block %d wrongly dominates the join", arm)
		}
	}
	if !d.Dominates(0, join) || !d.Dominates(join, join) {
		t.Error("join dominance wrong")
	}
}

func TestNaturalLoopAndTripBound(t *testing.T) {
	p := countedLoop(t)
	c := Build(p)
	d := c.Dominators()
	loops := c.NaturalLoops(d)
	if len(loops) != 1 {
		t.Fatalf("%d loops, want 1\n%s", len(loops), p)
	}
	l := loops[0]
	if c.Blocks[l.Header].Start != 2 {
		t.Errorf("header starts at %d, want 2", c.Blocks[l.Header].Start)
	}
	if len(l.Blocks) != 1 || len(l.Latches) != 1 {
		t.Errorf("loop shape: blocks=%v latches=%v", l.Blocks, l.Latches)
	}
	if len(l.Exits) != 1 || l.Exits[0] != l.Header {
		t.Errorf("exits=%v, want the header", l.Exits)
	}
	trips, ok := c.TripBound(&l, d, c.Ranges())
	if !ok || trips != 10 {
		t.Errorf("TripBound = %d,%v, want 10,true", trips, ok)
	}
}

func TestTripBoundRejectsUnbounded(t *testing.T) {
	// Bound register loaded from memory: entry value not exact.
	b := vcode.NewBuilder("unbounded")
	i, n, v := b.Temp(), b.Temp(), b.Temp()
	top := b.NewLabel()
	b.MovI(i, 0)
	b.Ld32(n, vcode.RArg0, 0)
	b.Bind(top)
	b.Ld32X(v, vcode.RArg0, i)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.Mov(vcode.RRet, v)
	b.Ret()
	p := b.MustAssemble()
	c := Build(p)
	d := c.Dominators()
	loops := c.NaturalLoops(d)
	if len(loops) != 1 {
		t.Fatalf("%d loops, want 1", len(loops))
	}
	if trips, ok := c.TripBound(&loops[0], d, c.Ranges()); ok {
		t.Errorf("TripBound proved %d trips for a memory-dependent bound", trips)
	}
}

// TestTripBoundShapes runs the one counted-loop prover over single- and
// multi-block loops: want is the exact trip count, 0 a refusal.
func TestTripBoundShapes(t *testing.T) {
	cases := []struct {
		name  string
		want  int64
		build func(b *vcode.Builder)
	}{
		// The sparse-record shape: a skip branch inside the body rejoins
		// before the latch, which is the only exit.
		{"multi-block", 10, func(b *vcode.Builder) {
			dst, i, n, v := b.Temp(), b.Temp(), b.Temp(), b.Temp()
			b.MovI(dst, 0x2000)
			b.MovI(i, 0)
			b.MovI(n, 40)
			top, skip := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.Ld32X(v, vcode.RArg0, i)
			b.Beq(v, vcode.RZero, skip)
			b.St32X(dst, i, v)
			b.Bind(skip)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
			b.MovI(vcode.RRet, 0)
		}},
		// A multi-block loop closed by bne, bound first.
		{"multi-block-bne", 10, func(b *vcode.Builder) {
			i, n, v := b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top, skip := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.Ld32X(v, vcode.RArg0, i)
			b.Beq(v, vcode.RZero, skip)
			b.St32X(vcode.RArg1, i, v)
			b.Bind(skip)
			b.AddIU(i, i, 4)
			b.Bne(n, i, top)
		}},
		// A second self-incremented register after the counter's increment
		// is not the counter.
		{"second-increment", 10, func(b *vcode.Builder) {
			i, n, acc := b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			b.MovI(acc, 0)
			top := b.NewLabel()
			b.Bind(top)
			b.AddIU(i, i, 4)
			b.AddIU(acc, acc, 1)
			b.BltU(i, n, top)
			b.Mov(vcode.RRet, acc)
		}},
		// A second exit (break out of the body): the latch-drain total
		// would overcharge short runs.
		{"early-exit", 0, func(b *vcode.Builder) {
			i, n, v := b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top, out := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.Ld32X(v, vcode.RArg0, i)
			b.Beq(v, vcode.RZero, out) // jumps past the latch
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
			b.Bind(out)
			b.MovI(vcode.RRet, 0)
		}},
		// Bound loaded from memory: entry value inexact.
		{"unknown-bound", 0, func(b *vcode.Builder) {
			i, n := b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.Ld32(n, vcode.RArg0, 0)
			top := b.NewLabel()
			b.Bind(top)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
		}},
		// Two increments of the counter: step is path-dependent.
		{"double-step", 0, func(b *vcode.Builder) {
			i, n, v := b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top, skip := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.Ld32X(v, vcode.RArg0, i)
			b.Beq(v, vcode.RZero, skip)
			b.AddIU(i, i, 4)
			b.Bind(skip)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
		}},
		// The one increment sits on a skip path: it does not run on every
		// iteration.
		{"conditional-step", 0, func(b *vcode.Builder) {
			i, n, v := b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top, skip := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.Ld32X(v, vcode.RArg0, i)
			b.Beq(v, vcode.RZero, skip)
			b.AddIU(i, i, 4)
			b.Bind(skip)
			b.BltU(i, n, top)
		}},
		// An inner loop: a second backward branch inside the body.
		{"inner-loop", 0, func(b *vcode.Builder) {
			i, n, j, k := b.Temp(), b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			b.MovI(k, 3)
			top, inner := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.MovI(j, 0)
			b.Bind(inner)
			b.AddIU(j, j, 1)
			b.BltU(j, k, inner)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
		}},
		// Bound redefined inside the loop.
		{"moving-bound", 0, func(b *vcode.Builder) {
			i, n := b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top := b.NewLabel()
			b.Bind(top)
			b.AddIU(n, n, 0)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
		}},
	}
	for _, tc := range cases {
		b := vcode.NewBuilder(tc.name)
		tc.build(b)
		p := b.MustAssemble()
		c := Build(p)
		d := c.Dominators()
		loops := c.NaturalLoops(d)
		if len(loops) == 0 {
			t.Fatalf("%s: no loop\n%s", tc.name, p)
		}
		outer := &loops[0] // the loop whose header comes first
		for k := range loops {
			if c.Blocks[loops[k].Header].Start < c.Blocks[outer.Header].Start {
				outer = &loops[k]
			}
		}
		trips, ok := c.TripBound(outer, d, c.Ranges())
		if tc.want == 0 && ok {
			t.Errorf("%s: accepted with trips=%d\n%s", tc.name, trips, p)
		}
		if tc.want != 0 && (!ok || trips != tc.want) {
			t.Errorf("%s: TripBound = %d,%v, want %d,true\n%s", tc.name, trips, ok, tc.want, p)
		}
	}
}

func TestLivenessDiamond(t *testing.T) {
	p := diamond(t)
	c := Build(p)
	lv := c.Liveness()
	// y (r9) is live into the join block, x (r8) is not.
	join := c.BlockOf[5]
	if !lv.In[join].Has(9) {
		t.Error("r9 not live into the join block")
	}
	if lv.In[join].Has(8) {
		t.Error("r8 wrongly live into the join block")
	}
	// RRet is live out of the final block (the runtime reads it).
	if !lv.Out[c.BlockOf[6]].Has(vcode.RRet) {
		t.Error("RRet not live at exit")
	}
	// Before the branch at pc=1, r8 is live (the branch reads it).
	if !lv.LiveOutAt(0).Has(8) {
		t.Error("r8 not live immediately after its definition")
	}
	// After the join-block mov, r9 is dead.
	if lv.LiveOutAt(5).Has(9) {
		t.Error("r9 still live after its last read")
	}
}

func TestLivenessPersistent(t *testing.T) {
	b := vcode.NewBuilder("acc")
	acc := b.Persistent()
	b.AddIU(acc, acc, 1)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	p := b.MustAssemble()
	c := Build(p)
	lv := c.Liveness()
	last := len(c.Blocks) - 1
	if !lv.Out[last].Has(acc) {
		t.Error("persistent register not live at exit")
	}
}

func TestRangesStraightLine(t *testing.T) {
	b := vcode.NewBuilder("ranges")
	x, y, z := b.Temp(), b.Temp(), b.Temp()
	b.MovI(x, 100)
	b.AddIU(y, x, 20)
	b.AndI(z, y, 0xff)
	b.Ld8(z, vcode.RArg0, 0) // replaces z with [0,255]
	b.SllI(z, z, 2)
	b.Ret()
	p := b.MustAssemble()
	c := Build(p)
	r := c.Ranges()

	if iv := r.Before(1, x); iv != (Interval{100, 100}) {
		t.Errorf("x before pc=1 = %v, want [100,100]", iv)
	}
	if iv := r.Before(2, y); iv != (Interval{120, 120}) {
		t.Errorf("y before pc=2 = %v, want [120,120]", iv)
	}
	if iv := r.Before(3, z); iv.Lo != 0 || iv.Hi > 0xff {
		t.Errorf("z before pc=3 = %v, want within [0,255]", iv)
	}
	if iv := r.Before(4, z); iv != (Interval{0, 255}) {
		t.Errorf("z after ld8 = %v, want [0,255]", iv)
	}
	if iv := r.Before(5, z); iv != (Interval{0, 1020}) {
		t.Errorf("z after slli 2 = %v, want [0,1020]", iv)
	}
	// Entry state: everything unknown (registers persist across runs).
	if iv := r.Before(0, x); iv != Top {
		t.Errorf("entry interval of x = %v, want Top", iv)
	}
}

func TestRangesMergeAndCall(t *testing.T) {
	b := vcode.NewBuilder("merge")
	x := b.Temp()
	els, join := b.NewLabel(), b.NewLabel()
	b.Beq(vcode.RArg0, vcode.RZero, els)
	b.MovI(x, 4)
	b.Jmp(join)
	b.Bind(els)
	b.MovI(x, 12)
	b.Bind(join)
	b.Mov(vcode.RRet, x)
	b.Call("ash_send")
	b.Mov(vcode.RRet, x)
	b.Ret()
	p := b.MustAssemble()
	c := Build(p)
	r := c.Ranges()
	// After the merge x is the hull [4,12].
	joinPC := 5
	if p.Insns[joinPC].Op != vcode.OpMovI {
		// Find the first insn of the join block robustly.
		for pc, in := range p.Insns {
			if in.Op == vcode.OpMov && in.Rd == vcode.RRet {
				joinPC = pc
				break
			}
		}
	}
	if iv := r.Before(joinPC, x); iv != (Interval{4, 12}) {
		t.Errorf("x at merge = %v, want [4,12]", iv)
	}
	// After the call everything is Top (syscalls may write any register).
	callPC := -1
	for pc, in := range p.Insns {
		if in.Op == vcode.OpCall {
			callPC = pc
		}
	}
	if iv := r.Before(callPC+1, x); iv != Top {
		t.Errorf("x after call = %v, want Top", iv)
	}
}

func TestRangesLoopWidens(t *testing.T) {
	p := countedLoop(t)
	c := Build(p)
	r := c.Ranges()
	// The analysis must terminate and keep the loop-invariant bound exact
	// at the latch.
	latchPC := 5
	if iv := r.Before(latchPC, vcode.Reg(9)); iv != (Interval{40, 40}) {
		t.Errorf("bound at latch = %v, want [40,40]", iv)
	}
}

func TestCheckSetBasics(t *testing.T) {
	s := NewCheckSet()
	s.AddSpan(8, 0, 8)
	if !s.Covers(8, 4) || s.Covers(8, 12) || s.Covers(9, 0) {
		t.Error("span coverage wrong")
	}
	// Two certified points merge into their hull (contiguous region).
	s.AddSpan(8, 20, 24)
	if !s.Covers(8, 16) {
		t.Error("hull between certified spans not covered")
	}
	// Beyond MaxCertSpan: kept separate.
	s.AddSpan(8, MaxCertSpan+100, MaxCertSpan+104)
	if s.Covers(8, MaxCertSpan+50) {
		t.Error("gap beyond MaxCertSpan wrongly covered")
	}
	if !s.Covers(8, MaxCertSpan+102) {
		t.Error("distant span lost")
	}
	s.AddPair(4, 9)
	if !s.CoversPair(4, 9) || s.CoversPair(9, 4) {
		t.Error("pair coverage wrong (pairs are ordered)")
	}
	s.KillReg(8)
	if s.Covers(8, 4) {
		t.Error("kill did not clear reg facts")
	}
	if !s.CoversPair(4, 9) {
		t.Error("kill of unrelated reg cleared a pair")
	}
	s.KillReg(9)
	if s.CoversPair(4, 9) {
		t.Error("kill of pair member did not clear the pair")
	}
}

func TestCheckSetMeet(t *testing.T) {
	a := NewCheckSet()
	a.AddSpan(8, 0, 16)
	a.AddPair(4, 5)
	b := NewCheckSet()
	b.AddSpan(8, 8, 24)
	a.Meet(b)
	if a.Covers(8, 4) || !a.Covers(8, 12) || a.Covers(8, 20) {
		t.Error("span intersection wrong")
	}
	if a.CoversPair(4, 5) {
		t.Error("pair not dropped by meet")
	}
	// Top is the meet identity.
	c := NewCheckSet()
	c.AddSpan(8, 0, 4)
	c.Meet(TopCheckSet())
	if !c.Covers(8, 0) {
		t.Error("meet with top lost facts")
	}
	d := TopCheckSet()
	d.Meet(c)
	if d.top || !d.Covers(8, 4) || d.Covers(8, 8) {
		t.Error("top meet concrete wrong")
	}
}

func TestLintFindings(t *testing.T) {
	b := vcode.NewBuilder("sloppy")
	dead, used := b.Temp(), b.Temp()
	per := b.Persistent()
	_ = per
	i, n := b.Temp(), b.Temp()
	top := b.NewLabel()
	b.MovI(dead, 42) // dead store: never read
	b.MovI(used, 7)
	b.MovI(i, 0)
	b.Ld32(n, vcode.RArg0, 0) // unbounded: n from memory
	b.Bind(top)
	b.AddIU(i, i, 1)
	b.BltU(i, n, top)
	b.Mov(vcode.RRet, used)
	b.Ret()
	p := b.MustAssemble()

	found := map[FindingKind]int{}
	for _, f := range Lint(p) {
		found[f.Kind]++
	}
	if found[LintDeadStore] == 0 {
		t.Error("dead store not reported")
	}
	if found[LintPersistentNeverRead] != 1 {
		t.Errorf("persistent-never-read reported %d times, want 1", found[LintPersistentNeverRead])
	}
	if found[LintUnboundedLoop] != 1 {
		t.Errorf("unbounded loop reported %d times, want 1", found[LintUnboundedLoop])
	}

	// The counted loop is bounded: no loop finding.
	for _, f := range Lint(countedLoop(t)) {
		if f.Kind == LintUnboundedLoop {
			t.Errorf("counted loop flagged unbounded: %s", f)
		}
	}
}
