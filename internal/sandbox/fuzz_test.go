package sandbox

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ashs/internal/netdev"
	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// The differential property at the heart of the optimizer's safety story:
// for any verifiable program, optimized instrumentation is architecturally
// equivalent to naive instrumentation — a clean naive run means a clean
// optimized run with identical registers (minus the sandbox scratch) and
// identical region memory in no more dynamic instructions, and a naive
// fault means an optimized fault (possibly at an earlier pc or of a
// different kind: the hull check at a group anchor fires before the
// per-member check it replaces). Neither variant may ever touch memory
// outside the region, even with a budget too small to finish.
//
// Since the DCG loop landed the property is three-way: the profile-
// reoptimized variant (built from a profile gathered by a naive pre-pass
// over the same program) joins the equivalence class, with dynamic
// instructions ordered reopt ≤ optimized ≤ naive. The oracle lives in
// ThreeWay (difftest.go); this file generates the programs and seeds.
// FuzzReoptProfile (fuzz_reopt_test.go) covers profiles no execution
// produced.

const (
	fuzzBase = 0x1000
	fuzzSize = 0x1000
)

// fuzzBoundMsg is the largest message a handler can be given, the AN2 MTU:
// the bound a generated program with one is held to, in every build.
var fuzzBoundMsg = netdev.AN2Config().MaxFrame

// genProgram builds a random verifiable program: straight-line unsigned
// arithmetic, direct and indexed memory ops through a few base registers
// (mostly in-region, sometimes wild), divides with occasionally-zero
// divisors, forward conditional branches, and properly counted loops.
// Nothing writes r0, the reserved registers, or the counter/bound of an
// open loop, and all control flow is forward or counted — so every
// generated program passes Verify.
func genProgram(rng *rand.Rand) *vcode.Program {
	regs := []vcode.Reg{8, 9, 10, 11, 12, 13}
	bases := []vcode.Reg{14, 15}
	reg := func() vcode.Reg { return regs[rng.Intn(len(regs))] }
	base := func() vcode.Reg { return bases[rng.Intn(len(bases))] }

	var insns []vcode.Insn
	add := func(in vcode.Insn) { insns = append(insns, in) }
	regionAddr := func() int32 {
		return fuzzBase + int32(rng.Intn(fuzzSize-0x200))&^3
	}
	for _, b := range bases {
		add(vcode.Insn{Op: vcode.OpMovI, Rd: b, Imm: regionAddr()})
	}
	add(vcode.Insn{Op: vcode.OpMovI, Rd: regs[0], Imm: int32(rng.Uint32() % 1000)})

	var pendingBranches []int // indices whose Target must be clamped at the end
	n := 8 + rng.Intn(25)
	for i := 0; i < n; i++ {
		switch rng.Intn(14) {
		case 0:
			add(vcode.Insn{Op: vcode.OpMovI, Rd: reg(), Imm: int32(rng.Uint32() % 5000)})
		case 1:
			add(vcode.Insn{Op: vcode.OpAddU, Rd: reg(), Rs: reg(), Rt: reg()})
		case 2:
			add(vcode.Insn{Op: vcode.OpXorI, Rd: reg(), Rs: reg(), Imm: int32(rng.Intn(1 << 12))})
		case 3: // clustered direct accesses through one base
			b := base()
			off := int32(rng.Intn(0x1c0)) &^ 3
			add(vcode.Insn{Op: vcode.OpSt32, Rs: b, Imm: off, Rt: reg()})
			add(vcode.Insn{Op: vcode.OpLd32, Rd: reg(), Rs: b, Imm: off + 4})
		case 4:
			add(vcode.Insn{Op: vcode.OpLd32, Rd: reg(), Rs: base(), Imm: int32(rng.Intn(0x200)) &^ 3})
		case 5:
			add(vcode.Insn{Op: vcode.OpSt8, Rs: base(), Imm: int32(rng.Intn(0x200)), Rt: reg()})
		case 6: // occasionally repoint a base, sometimes out of region
			imm := regionAddr()
			if rng.Intn(4) == 0 {
				imm = int32(rng.Uint32() % 0x20000)
			}
			add(vcode.Insn{Op: vcode.OpMovI, Rd: base(), Imm: imm})
		case 7: // indexed access with a bounded index
			idx := reg()
			add(vcode.Insn{Op: vcode.OpAndI, Rd: idx, Rs: reg(), Imm: 0xfc})
			if rng.Intn(2) == 0 {
				add(vcode.Insn{Op: vcode.OpLd32X, Rd: reg(), Rs: base(), Rt: idx})
			} else {
				add(vcode.Insn{Op: vcode.OpSt32X, Rs: base(), Rt: idx, Rd: reg()})
			}
		case 8: // divide; divisor sometimes certainly zero, sometimes nonzero
			d := reg()
			if rng.Intn(3) == 0 {
				add(vcode.Insn{Op: vcode.OpMovI, Rd: d, Imm: int32(rng.Intn(2))})
			}
			op := vcode.OpDivU
			if rng.Intn(2) == 0 {
				op = vcode.OpRemU
			}
			add(vcode.Insn{Op: op, Rd: reg(), Rs: reg(), Rt: d})
		case 9: // forward conditional branch (target clamped to ret below)
			ops := []vcode.Op{vcode.OpBeq, vcode.OpBne, vcode.OpBltU, vcode.OpBgeU}
			pendingBranches = append(pendingBranches, len(insns))
			add(vcode.Insn{Op: ops[rng.Intn(len(ops))], Rs: reg(), Rt: reg(),
				Target: int32(len(insns) + 2 + rng.Intn(5))})
		case 10: // counted loop with a memory op in the body
			i, bound := regs[4], regs[5] // dedicated; body avoids them
			trips := int32(1+rng.Intn(8)) * 4
			add(vcode.Insn{Op: vcode.OpMovI, Rd: i, Imm: 0})
			add(vcode.Insn{Op: vcode.OpMovI, Rd: bound, Imm: trips})
			top := len(insns)
			switch rng.Intn(3) {
			case 0:
				add(vcode.Insn{Op: vcode.OpSt32X, Rs: bases[0], Rt: i, Rd: regs[0]})
			case 1:
				add(vcode.Insn{Op: vcode.OpLd32, Rd: regs[1], Rs: bases[0], Imm: 8})
			case 2:
				add(vcode.Insn{Op: vcode.OpAddU, Rd: regs[2], Rs: regs[2], Rt: regs[0]})
			}
			add(vcode.Insn{Op: vcode.OpAddIU, Rd: i, Rs: i, Imm: 4})
			add(vcode.Insn{Op: vcode.OpBltU, Rs: i, Rt: bound, Target: int32(top)})
		case 11:
			add(vcode.Insn{Op: vcode.OpMulU, Rd: reg(), Rs: reg(), Rt: reg()})
		case 12:
			add(vcode.Insn{Op: vcode.OpBswap, Rd: reg(), Rs: reg()})
		case 13:
			add(vcode.Insn{Op: vcode.OpSrlI, Rd: reg(), Rs: reg(), Imm: int32(rng.Intn(8))})
		}
	}
	add(vcode.Insn{Op: vcode.OpRet})
	for _, b := range pendingBranches {
		if int(insns[b].Target) >= len(insns) {
			insns[b].Target = int32(len(insns) - 1) // the ret
		}
	}
	return &vcode.Program{Name: "fuzz", Insns: insns, NextReg: 16}
}

// checkDifferential runs p through the three-way oracle with a measured
// profile, plus starved-budget confinement runs in software mode.
// Returns false (after t.Error) on any divergence so quick.Check reports
// the failing seed.
func checkDifferential(t *testing.T, p *vcode.Program, budget BudgetMode) bool {
	t.Helper()
	out, err := ThreeWay(p, nil, DiffConfig{Budget: budget})
	if err != nil {
		t.Error(err)
		return false
	}
	if _, err := analysis.Bound(p, fuzzBoundMsg); err == nil {
		if err := CheckBound(p, budget, out, fuzzBoundMsg); err != nil {
			t.Error(err)
			return false
		}
	}
	// Each of the three builds is made at its final length.
	for _, pol := range threeWayPolicies(budget, out.Profile) {
		sp, err := Sandbox(p, pol)
		if err != nil {
			t.Error(err)
			return false
		}
		if n, c := len(sp.Code.Insns), cap(sp.Code.Insns); n != c {
			t.Errorf("optimize %v, profile %v: a build of %d insns has capacity %d\n%s", pol.Optimize, pol.Profile != nil, n, c, p)
			return false
		}
	}
	// Starved-budget runs (software mode): equivalence is not required —
	// the coarse drain faults earlier than per-iteration checks — but
	// confinement is absolute.
	if budget == BudgetSoftware {
		for _, b := range []int64{5, 25, 120} {
			_, err := ThreeWay(p, nil, DiffConfig{
				Budget: budget, InsnBudget: b, ConfinementOnly: true,
			})
			if err != nil {
				t.Error(err)
				return false
			}
		}
	}
	return true
}

func diffSeed(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	p := genProgram(rng)
	mode := BudgetTimer
	if seed%2 == 0 {
		mode = BudgetSoftware
	}
	return checkDifferential(t, p, mode)
}

func TestDifferentialSFIQuick(t *testing.T) {
	prop := func(seed int64) bool { return diffSeed(t, seed) }
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func FuzzDifferentialSFI(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1996, -7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffSeed(t, seed)
	})
}
