package sandbox

import (
	"testing"

	"ashs/internal/mach"
	"ashs/internal/vcode"
)

func TestVerifyRejectsUnreachableCode(t *testing.T) {
	p := &vcode.Program{Name: "dead", Insns: []vcode.Insn{
		{Op: vcode.OpJmp, Target: 2},
		{Op: vcode.OpMovI, Rd: 8, Imm: 1}, // unreachable
		{Op: vcode.OpRet},
	}}
	err := Verify(p, DefaultPolicy())
	if err == nil {
		t.Fatal("program with unreachable code verified")
	}
	ve, ok := err.(*VerifyError)
	if !ok || ve.PC != 1 {
		t.Fatalf("err = %v, want VerifyError at pc=1", err)
	}
}

func TestVerifyRejectsUndisciplinedJmpR(t *testing.T) {
	// The target register comes straight from an argument: nothing bounds
	// it inside the program, so the jump-table discipline check must fire.
	p := assemble(t, func(b *vcode.Builder) {
		b.JmpR(vcode.RArg0)
		b.Ret()
	})
	if err := Verify(p, DefaultPolicy()); err == nil {
		t.Fatal("undisciplined indirect jump verified")
	}
}

func TestVerifyAcceptsBoundedJmpR(t *testing.T) {
	// A constant target is provably inside the program.
	p := assemble(t, func(b *vcode.Builder) {
		r := b.Temp()
		b.MovI(r, 2)
		b.JmpR(r)
		b.Ret()
	})
	if err := Verify(p, DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
	// Masking an arbitrary value into range also satisfies the discipline.
	p2 := assemble(t, func(b *vcode.Builder) {
		r := b.Temp()
		b.AndI(r, vcode.RArg0, 3) // program is 4 insns long
		b.JmpR(r)
		b.Nop()
		b.Ret()
	})
	if err := Verify(p2, DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
}

func TestSandboxClonesOriginal(t *testing.T) {
	for _, hw := range []Hardware{HardwareMIPS, HardwareX86} {
		pol := DefaultPolicy()
		pol.Hardware = hw
		p := assemble(t, func(b *vcode.Builder) {
			b.MovI(vcode.RRet, 1)
			b.Ret()
		})
		sp, err := Sandbox(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		p.Insns[0].Imm = 99 // caller mutates its program after download
		if sp.Orig.Insns[0].Imm != 1 {
			t.Fatalf("hw=%v: Orig aliases the caller's program", hw)
		}
	}
}

func optPolicy() *Policy {
	pol := DefaultPolicy()
	pol.Optimize = true
	return pol
}

// runBoth sandboxes p naively and optimized, runs both on fresh machines,
// and returns the two programs plus the two machines for inspection.
func runBoth(t *testing.T, p *vcode.Program, naivePol, optPol *Policy, base uint32, size int, budget int64) (spN, spO *Program, mN, mO *vcode.Machine) {
	t.Helper()
	run := func(pol *Policy) (*Program, *vcode.Machine) {
		sp, err := Sandbox(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		mem := vcode.NewFlatMem(base, size)
		m := vcode.NewMachine(mach.DS5000_240(), mem)
		sp.Attach(m, base, base+uint32(size), budget)
		if f := m.Run(sp.Code); f != nil {
			t.Fatalf("%s: %v", sp.Code.Name, f)
		}
		return sp, m
	}
	spN, mN = run(naivePol)
	spO, mO = run(optPol)
	return
}

func TestOptimizeElidesClusteredChecks(t *testing.T) {
	// Four accesses through one unchanging base register: naive emits four
	// check pairs, optimized at most two (the hull endpoints).
	p := assemble(t, func(b *vcode.Builder) {
		r, v := b.Temp(), b.Temp()
		b.MovI(r, 0x1000)
		b.MovI(v, 5)
		b.St32(r, 0, v)
		b.St32(r, 4, v)
		b.St32(r, 8, v)
		b.Ld32(vcode.RRet, r, 0)
		b.Ret()
	})
	spN, spO, mN, mO := runBoth(t, p, DefaultPolicy(), optPolicy(), 0x1000, 64, 0)
	if spO.ChecksElided == 0 {
		t.Fatal("no checks elided on a clustered-access program")
	}
	if spO.AddedStatic >= spN.AddedStatic {
		t.Fatalf("optimized added %d static insns, naive %d", spO.AddedStatic, spN.AddedStatic)
	}
	if mO.Insns >= mN.Insns {
		t.Fatalf("optimized ran %d insns, naive %d", mO.Insns, mN.Insns)
	}
	if mO.Regs[vcode.RRet] != mN.Regs[vcode.RRet] {
		t.Fatalf("results differ: opt=%d naive=%d", mO.Regs[vcode.RRet], mN.Regs[vcode.RRet])
	}
}

func TestOptimizedStillCatchesOutOfRegion(t *testing.T) {
	// The clustered accesses straddle the region end: the hull endpoint
	// check must still fault even though per-member checks were elided.
	p := assemble(t, func(b *vcode.Builder) {
		r, v := b.Temp(), b.Temp()
		b.MovI(r, 0x1000)
		b.MovI(v, 5)
		b.St32(r, 0, v)
		b.St32(r, 128, v) // past the 64-byte region
		b.Ret()
	})
	sp, err := Sandbox(p, optPolicy())
	if err != nil {
		t.Fatal(err)
	}
	mem := vcode.NewFlatMem(0x1000, 4096)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	sp.Attach(m, 0x1000, 0x1040, 0)
	f := m.Run(sp.Code)
	if f == nil || f.Kind != vcode.FaultBadAddr {
		t.Fatalf("fault = %v, want bad address", f)
	}
	if v, _ := vcode.Load32(mem, 0x1080); v != 0 {
		t.Fatal("out-of-region store went through")
	}
}

func TestOptimizeHoistsLoopInvariantChecks(t *testing.T) {
	// A 10-iteration loop storing through a loop-invariant base register:
	// naive checks every iteration, optimized checks once in the preheader.
	loop := func(b *vcode.Builder) {
		base, i, n := b.Temp(), b.Temp(), b.Temp()
		b.MovI(base, 0x1000)
		b.MovI(i, 0)
		b.MovI(n, 10)
		top := b.NewLabel()
		b.Bind(top)
		b.St32(base, 8, i)
		b.AddIU(i, i, 1)
		b.BltU(i, n, top)
		b.Mov(vcode.RRet, i)
		b.Ret()
	}
	p := assemble(t, loop)
	spN, spO, mN, mO := runBoth(t, p, DefaultPolicy(), optPolicy(), 0x1000, 64, 0)
	_ = spN
	if spO.ChecksHoisted == 0 {
		t.Fatal("no checks hoisted out of an invariant-base loop")
	}
	if mO.Insns >= mN.Insns {
		t.Fatalf("optimized ran %d insns, naive %d", mO.Insns, mN.Insns)
	}
	if mO.Regs[vcode.RRet] != 10 || mN.Regs[vcode.RRet] != 10 {
		t.Fatalf("results: opt=%d naive=%d, want 10", mO.Regs[vcode.RRet], mN.Regs[vcode.RRet])
	}
}

func TestOptimizeCoarsensBudgetChecks(t *testing.T) {
	softOpt := optPolicy()
	softOpt.Budget = BudgetSoftware
	softNaive := DefaultPolicy()
	softNaive.Budget = BudgetSoftware

	p := assemble(t, func(b *vcode.Builder) {
		i, n := b.Temp(), b.Temp()
		b.MovI(i, 0)
		b.MovI(n, 50)
		top := b.NewLabel()
		b.Bind(top)
		b.AddIU(i, i, 1)
		b.BltU(i, n, top)
		b.Mov(vcode.RRet, i)
		b.Ret()
	})
	spN, spO, mN, mO := runBoth(t, p, softNaive, softOpt, 0x1000, 64, 100000)
	if spO.BudgetCoarsened != 1 {
		t.Fatalf("BudgetCoarsened = %d, want 1", spO.BudgetCoarsened)
	}
	if mO.Insns >= mN.Insns {
		t.Fatalf("optimized ran %d insns, naive %d", mO.Insns, mN.Insns)
	}
	if mO.Regs[vcode.RRet] != 50 || mN.Regs[vcode.RRet] != 50 {
		t.Fatalf("results: opt=%d naive=%d, want 50", mO.Regs[vcode.RRet], mN.Regs[vcode.RRet])
	}
	_ = spN

	// With a budget too small for the whole loop, the coarse up-front
	// drain still aborts the handler.
	sp, err := Sandbox(p, softOpt)
	if err != nil {
		t.Fatal(err)
	}
	mem := vcode.NewFlatMem(0x1000, 64)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	sp.Attach(m, 0x1000, 0x1040, 20)
	if f := m.Run(sp.Code); f == nil || f.Kind != vcode.FaultBudget {
		t.Fatalf("fault = %v, want budget", f)
	}
}

func TestOptimizeElidesProvablyNonzeroDivide(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		a, d := b.Temp(), b.Temp()
		b.MovI(a, 100)
		b.MovI(d, 7)
		b.DivU(vcode.RRet, a, d)
		b.Ret()
	})
	spN, spO, mN, mO := runBoth(t, p, DefaultPolicy(), optPolicy(), 0x1000, 64, 0)
	if spO.AddedStatic >= spN.AddedStatic {
		t.Fatalf("optimized added %d, naive %d — divide check not elided", spO.AddedStatic, spN.AddedStatic)
	}
	if mO.Regs[vcode.RRet] != 14 || mN.Regs[vcode.RRet] != 14 {
		t.Fatalf("results: opt=%d naive=%d, want 14", mO.Regs[vcode.RRet], mN.Regs[vcode.RRet])
	}
}

func TestOptimizeFallsBackOnIndirectJumps(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		r, a := b.Temp(), b.Temp()
		b.MovI(r, 2)
		b.JmpR(r)
		b.MovI(a, 0x1000)
		b.Ld32(vcode.RRet, a, 0)
		b.Ret()
	})
	sp, err := Sandbox(p, optPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if sp.ChecksElided != 0 || sp.ChecksHoisted != 0 || sp.BudgetCoarsened != 0 {
		t.Fatal("optimizer ran on a program with an indirect jump")
	}
	mem := vcode.NewFlatMem(0x1000, 64)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	sp.Attach(m, 0x1000, 0x1040, 0)
	if f := m.Run(sp.Code); f != nil {
		t.Fatal(f)
	}
}
