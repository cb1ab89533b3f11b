package sandbox

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ashs/internal/mach"
	"ashs/internal/vcode"
)

func assemble(t *testing.T, build func(b *vcode.Builder)) *vcode.Program {
	t.Helper()
	b := vcode.NewBuilder("t")
	build(b)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyRejectsFloat(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		b.Float(vcode.OpFAdd, vcode.RRet, vcode.RZero, vcode.RZero)
		b.Ret()
	})
	if _, err := Verify(p, DefaultPolicy()); err == nil {
		t.Fatal("float program verified")
	}
}

func TestVerifyRejectsSignedArith(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		b.Signed(vcode.OpAdd, vcode.RRet, vcode.RZero, vcode.RZero)
		b.Ret()
	})
	if _, err := Verify(p, DefaultPolicy()); err == nil {
		t.Fatal("signed-arithmetic program verified")
	}
}

func TestVerifyRejectsForgedSandboxOps(t *testing.T) {
	for _, op := range []vcode.Op{vcode.OpSboxMask, vcode.OpSboxChk, vcode.OpChkDiv, vcode.OpChkBudget} {
		p := assemble(t, func(b *vcode.Builder) {
			b.RawSandboxOp(op)
			b.Ret()
		})
		if _, err := Verify(p, DefaultPolicy()); err == nil {
			t.Fatalf("program containing %v verified", op)
		}
	}
}

// TestVerifyRejectsDisallowedCall: a call that names no entry point is
// rejected by name — as are no entry point (Sym 0) and an id no name was
// given, which only hand-built code holds.
func TestVerifyRejectsDisallowedCall(t *testing.T) {
	for _, c := range []struct {
		sym  vcode.Sym
		name string
	}{{vcode.Intern("kernel_format_disk"), `"kernel_format_disk"`}, {0, `""`}, {math.MaxUint32, `"sym(4294967295)"`}} {
		p := &vcode.Program{Name: "t", Insns: []vcode.Insn{{Op: vcode.OpCall, Sym: c.sym}, {Op: vcode.OpRet}}}
		_, err := Verify(p, DefaultPolicy())
		if want := "call to " + c.name + " is not an allowed system entry point"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("call of Sym %d: %v, want an error saying %s", c.sym, err, want)
		}
	}
}

// TestVerifyAllowsListedCall: a call to each entry point verifies.
func TestVerifyAllowsListedCall(t *testing.T) {
	for _, name := range []string{"ash_send", "ash_copy", "ash_dilp", "ash_msg_load"} {
		p := assemble(t, func(b *vcode.Builder) {
			b.Call(name)
			b.Ret()
		})
		if _, err := Verify(p, DefaultPolicy()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestVerifyRejectsWriteToSandboxReg(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		b.MovI(vcode.RSbox, 0)
		b.Ret()
	})
	if _, err := Verify(p, DefaultPolicy()); err == nil {
		t.Fatal("write to RSbox verified")
	}
}

func TestVerifyRejectsPipeOps(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		b.Input32(vcode.RRet)
		b.Ret()
	})
	if _, err := Verify(p, DefaultPolicy()); err == nil {
		t.Fatal("raw pipe op verified")
	}
}

func TestSandboxAddsTwoInsnsPerMemoryOp(t *testing.T) {
	pol := DefaultPolicy()
	p := assemble(t, func(b *vcode.Builder) {
		r := b.Temp()
		b.MovI(r, 0x1000)
		b.Ld32(vcode.RRet, r, 0)
		b.St32(r, 4, vcode.RRet)
		b.Ret()
	})
	sp, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + PrologueLen + EpilogueLen; sp.AddedStatic != want {
		t.Fatalf("AddedStatic = %d, want %d (2 per memory op + entry/exit)", sp.AddedStatic, want)
	}
}

func TestSandboxEntryExitOverhead(t *testing.T) {
	pol := DefaultPolicy()
	p := assemble(t, func(b *vcode.Builder) {
		b.MovI(vcode.RRet, 1)
		b.Ret()
	})
	sp, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	want := PrologueLen + EpilogueLen
	if sp.AddedStatic != want {
		t.Fatalf("AddedStatic = %d, want %d (entry/exit only)", sp.AddedStatic, want)
	}
}

func TestX86ModeAddsNothing(t *testing.T) {
	pol := DefaultPolicy()
	pol.Hardware = HardwareX86
	p := assemble(t, func(b *vcode.Builder) {
		r := b.Temp()
		b.MovI(r, 0x1000)
		b.Ld32(vcode.RRet, r, 0)
		b.Ret()
	})
	sp, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	if sp.AddedStatic != 0 {
		t.Fatalf("x86 AddedStatic = %d, want 0", sp.AddedStatic)
	}
}

func runSandboxed(t *testing.T, p *vcode.Program, pol *Policy, memBase uint32, memLen int) (*vcode.Machine, *vcode.Fault) {
	t.Helper()
	sp, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	mem := vcode.NewFlatMem(memBase, memLen)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	sp.Attach(m, memBase, memBase+uint32(memLen), 10000)
	return m, m.Run(sp.Code)
}

func TestSandboxedInBoundsAccessWorks(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		r, v := b.Temp(), b.Temp()
		b.MovI(r, 0x1000)
		b.MovI(v, 77)
		b.St32(r, 8, v)
		b.Ld32(vcode.RRet, r, 8)
		b.Ret()
	})
	m, f := runSandboxed(t, p, DefaultPolicy(), 0x1000, 64)
	if f != nil {
		t.Fatal(f)
	}
	if m.Regs[vcode.RRet] != 77 {
		t.Fatalf("RRet = %d, want 77", m.Regs[vcode.RRet])
	}
}

func TestSandboxedOutOfBoundsStoreAborts(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		r := b.Temp()
		b.MovI(r, 0x9000) // outside the region
		b.St32(r, 0, r)
		b.Ret()
	})
	_, f := runSandboxed(t, p, DefaultPolicy(), 0x1000, 64)
	if f == nil || f.Kind != vcode.FaultBadAddr {
		t.Fatalf("fault = %v, want bad address", f)
	}
}

func TestSandboxedIndexedAccessChecked(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		base, idx := b.Temp(), b.Temp()
		b.MovI(base, 0x1000)
		b.MovI(idx, 4096) // pushes the EA out of the region
		b.Ld32X(vcode.RRet, base, idx)
		b.Ret()
	})
	_, f := runSandboxed(t, p, DefaultPolicy(), 0x1000, 64)
	if f == nil || f.Kind != vcode.FaultBadAddr {
		t.Fatalf("fault = %v, want bad address", f)
	}
}

func TestSandboxedDivZeroAborts(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) {
		a := b.Temp()
		b.MovI(a, 5)
		b.DivU(vcode.RRet, a, vcode.RZero)
		b.Ret()
	})
	_, f := runSandboxed(t, p, DefaultPolicy(), 0x1000, 64)
	if f == nil || f.Kind != vcode.FaultDivZero {
		t.Fatalf("fault = %v, want div-zero (from inserted check)", f)
	}
}

func TestSoftwareBudgetAbortsRunawayLoop(t *testing.T) {
	pol := DefaultPolicy()
	pol.Budget = BudgetSoftware
	// A conditional branch that always retakes the loop: the assembler's
	// appended ret stays reachable (the hardened verifier rejects dead
	// code), but the branch never falls through at run time.
	p := assemble(t, func(b *vcode.Builder) {
		r := b.Temp()
		b.MovI(r, 1)
		top := b.NewLabel()
		b.Bind(top)
		b.Bne(r, vcode.RZero, top)
	})
	sp, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	mem := vcode.NewFlatMem(0x1000, 64)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	sp.Attach(m, 0x1000, 0x1040, 500)
	f := m.Run(sp.Code)
	if f == nil || f.Kind != vcode.FaultBudget {
		t.Fatalf("fault = %v, want budget", f)
	}
}

func TestSoftwareBudgetAllowsBoundedLoop(t *testing.T) {
	pol := DefaultPolicy()
	pol.Budget = BudgetSoftware
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
	sp, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	mem := vcode.NewFlatMem(0x1000, 64)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	sp.Attach(m, 0x1000, 0x1040, 10000)
	if f := m.Run(sp.Code); f != nil {
		t.Fatal(f)
	}
	if m.Regs[vcode.RRet] != 50 {
		t.Fatalf("loop result = %d, want 50", m.Regs[vcode.RRet])
	}
}

func TestBranchRetargetingPreservesSemantics(t *testing.T) {
	// A program whose result depends on correct branch targets, with memory
	// ops interleaved so instrumentation shifts every index.
	p := assemble(t, func(b *vcode.Builder) {
		base, i, n, sum, v := b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp()
		b.MovI(base, 0x1000)
		// Fill 8 words with 1..8, then sum them.
		b.MovI(i, 0)
		b.MovI(n, 32)
		fill := b.NewLabel()
		b.Bind(fill)
		b.SrlI(v, i, 2)
		b.AddIU(v, v, 1)
		b.St32X(base, i, v)
		b.AddIU(i, i, 4)
		b.BltU(i, n, fill)
		b.MovI(i, 0)
		b.MovI(sum, 0)
		add := b.NewLabel()
		b.Bind(add)
		b.Ld32X(v, base, i)
		b.AddU(sum, sum, v)
		b.AddIU(i, i, 4)
		b.BltU(i, n, add)
		b.Mov(vcode.RRet, sum)
		b.Ret()
	})

	// Run unsandboxed and sandboxed (both budget modes); results must match.
	run := func(pol *Policy) uint32 {
		if pol == nil {
			mem := vcode.NewFlatMem(0x1000, 64)
			m := vcode.NewMachine(mach.DS5000_240(), mem)
			if f := m.Run(p); f != nil {
				t.Fatal(f)
			}
			return m.Regs[vcode.RRet]
		}
		sp, err := Sandbox(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		mem := vcode.NewFlatMem(0x1000, 64)
		m := vcode.NewMachine(mach.DS5000_240(), mem)
		sp.Attach(m, 0x1000, 0x1040, 100000)
		if f := m.Run(sp.Code); f != nil {
			t.Fatal(f)
		}
		return m.Regs[vcode.RRet]
	}
	want := run(nil)
	if want != 36 {
		t.Fatalf("reference result = %d, want 36", want)
	}
	polT := DefaultPolicy()
	polS := DefaultPolicy()
	polS.Budget = BudgetSoftware
	if got := run(polT); got != want {
		t.Fatalf("timer-mode sandboxed = %d, want %d", got, want)
	}
	if got := run(polS); got != want {
		t.Fatalf("software-budget sandboxed = %d, want %d", got, want)
	}
}

// trustedCopy registers the "ash_copy" kernel entry point: a data copy with
// access checks aggregated at initiation time (Section III-B2), so the
// per-word work escapes per-reference sandboxing. This is the mechanism
// behind the paper's observation that sandbox overhead drops from 1.3-1.4x
// at 40 bytes to 1.01-1.02x at 4096 bytes (Section V-D).
func trustedCopy(mem *vcode.FlatMem) vcode.SyscallFn {
	return func(m *vcode.Machine) error {
		src := m.Regs[vcode.RArg0]
		dst := m.Regs[vcode.RArg1]
		n := m.Regs[vcode.RArg2]
		m.Charge(12) // aggregated access check at initiation
		for off := uint32(0); off < n; off += 4 {
			v, err := vcode.Load32(mem, src+off)
			if err != nil {
				return err
			}
			if err := vcode.Store32(mem, dst+off, v); err != nil {
				return err
			}
			m.Charge(8) // uncached load + store + loop, per word
		}
		return nil
	}
}

func TestSandboxOverheadRatioShrinksWithDataSize(t *testing.T) {
	// Section V-D shape: the handler parses a small header with sandboxed
	// per-reference code, then moves the payload with the trusted
	// aggregated-check copy. Fixed sandbox overhead amortizes with size.
	writeProg := func(n int32) *vcode.Program {
		return assemble(t, func(b *vcode.Builder) {
			hdr, ptr := b.Temp(), b.Temp()
			b.MovI(hdr, 0x1000)
			b.Ld32(ptr, hdr, 0) // destination pointer carried in the message
			b.Ld32(vcode.RArg2, hdr, 4)
			b.MovI(vcode.RArg0, 0x1010) // payload start
			b.Mov(vcode.RArg1, ptr)
			b.MovI(vcode.RArg2, n)
			b.Call("ash_copy")
			b.Ret()
		})
	}
	ratio := func(n int32) float64 {
		run := func(sandboxed bool) int64 {
			p := writeProg(n)
			mem := vcode.NewFlatMem(0x1000, 0x8000)
			// Message header: destination pointer then length.
			_ = vcode.Store32(mem, 0x1000, 0x5000)
			_ = vcode.Store32(mem, 0x1004, uint32(n))
			m := vcode.NewMachine(mach.DS5000_240(), mem)
			m.Syms = make([]vcode.SyscallFn, symCopy+1)
			m.Syms[symCopy] = trustedCopy(mem)
			if !sandboxed {
				if f := m.Run(p); f != nil {
					t.Fatal(f)
				}
				return int64(m.Cycles)
			}
			sp, err := Sandbox(p, DefaultPolicy())
			if err != nil {
				t.Fatal(err)
			}
			sp.Attach(m, 0x1000, 0x9000, 0)
			if f := m.Run(sp.Code); f != nil {
				t.Fatal(f)
			}
			return int64(m.Cycles)
		}
		return float64(run(true)) / float64(run(false))
	}
	small := ratio(40)
	large := ratio(4096)
	if small <= large {
		t.Fatalf("overhead ratio should shrink with size: small=%.3f large=%.3f", small, large)
	}
	if small < 1.05 {
		t.Fatalf("small-transfer ratio = %.3f, want visible overhead (paper: 1.3-1.4)", small)
	}
	if large > 1.1 {
		t.Fatalf("large-transfer overhead ratio = %.3f, want close to 1 (paper: 1.01-1.02)", large)
	}
}

// TestRandomProgramsNeverEscape is the safety property at the heart of the
// ASH design: no sandboxed program, however adversarial, may read or write
// outside its region, divide by zero, or run forever. Now and then the
// generator aims a destination at r0 or at the staging register, which the
// instrumented accesses rely on; those programs must not get as far as
// running.
func TestRandomProgramsNeverEscape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pol := DefaultPolicy()
	pol.Budget = BudgetSoftware

	rejected := 0
	for trial := 0; trial < 300; trial++ {
		b := vcode.NewBuilder("fuzz")
		regs := make([]vcode.Reg, 6)
		for i := range regs {
			regs[i] = b.Temp()
		}
		lbl := b.NewLabel()
		bound := false
		reserved := false // some instruction writes r0 or r28
		count := 5 + rng.Intn(30)
		for i := 0; i < count; i++ {
			rd := regs[rng.Intn(len(regs))]
			rs := regs[rng.Intn(len(regs))]
			rt := regs[rng.Intn(len(regs))]
			if rng.Intn(200) == 0 {
				rd = []vcode.Reg{vcode.RZero, vcode.RSbox}[rng.Intn(2)]
			}
			op := rng.Intn(12)
			// St32, the label/branch case and St32X read rd or ignore it.
			reserved = reserved || (rd == vcode.RZero || rd == vcode.RSbox) && op != 3 && op != 7 && op != 11
			switch op {
			case 0:
				b.MovI(rd, int32(rng.Uint32()))
			case 1:
				b.AddU(rd, rs, rt)
			case 2:
				b.Ld32(rd, rs, int32(rng.Intn(8192))&^3)
			case 3:
				b.St32(rs, int32(rng.Intn(8192))&^3, rt)
			case 4:
				b.DivU(rd, rs, rt)
			case 5:
				b.Ld8(rd, rs, int32(rng.Intn(8192)))
			case 6:
				b.XorI(rd, rs, int32(rng.Uint32()&0xffff))
			case 7:
				if !bound {
					b.Bind(lbl)
					bound = true
				} else {
					b.Bne(rs, rt, lbl)
				}
			case 8:
				b.MulU(rd, rs, rt)
			case 9:
				b.Bswap(rd, rs)
			case 10:
				b.Ld32X(rd, rs, rt)
			case 11:
				b.St32X(rs, rt, rd)
			}
		}
		if !bound {
			b.Bind(lbl)
		}
		b.Ret()
		p, err := b.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Sandbox(p, pol)
		if reserved {
			var ve *VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("trial %d: a program that writes a reserved register was accepted (err = %v)\n%s", trial, err, p)
			}
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err) // the other generated ops are all verifiable
		}

		const base, size = 0x1000, 4096
		guarded := &escapeGuard{inner: vcode.NewFlatMem(0, 0x10000), lo: base, hi: base + size}
		m := vcode.NewMachine(mach.DS5000_240(), guarded)
		m.CycleLimit = 200000 // backstop so the test terminates even on bugs
		sp.Attach(m, base, base+size, 5000)
		m.Run(sp.Code) // fault or clean return both fine
		if guarded.escaped {
			t.Fatalf("trial %d: sandboxed program touched memory outside its region\n%s", trial, sp.Code)
		}
	}
	if rejected < 5 {
		t.Errorf("only %d of 300 programs wrote a reserved register: the rejection went untested", rejected)
	}
}

// TestZeroRegisterWriteRejected is the hole the clause in verifyProgram
// closes. Both instrumenters rewrite an indexed access to [r28 + r0] once
// r28 has been checked, and Machine.Run stores to r0 like to any other
// register: a handler allowed to write r0 is checked at one address and
// touches another.
func TestZeroRegisterWriteRejected(t *testing.T) {
	p := &vcode.Program{Name: "r0", Insns: []vcode.Insn{
		{Op: vcode.OpMovI, Rd: vcode.RZero, Imm: 0x2000},
		{Op: vcode.OpMovI, Rd: 8, Imm: 0x1000},
		{Op: vcode.OpMovI, Rd: 9, Imm: 0},
		{Op: vcode.OpLd32X, Rd: 10, Rs: 8, Rt: 9},
		{Op: vcode.OpRet},
	}}
	for _, optimize := range []bool{false, true} {
		pol := DefaultPolicy()
		pol.Optimize = optimize
		var ve *VerifyError
		if _, err := Sandbox(p, pol); !errors.As(err, &ve) || ve.PC != 0 {
			t.Fatalf("Optimize=%v: Sandbox accepted a write to r0 (err = %v)", optimize, err)
		}
	}

	// Why: the same program past the verifier. The check passes at 0x1000
	// and the load reads 0x3000, outside the attached [0x1000, 0x1100).
	code, _ := instrumentNaive(p, DefaultPolicy())
	guarded := &escapeGuard{inner: vcode.NewFlatMem(0, 0x10000), lo: 0x1000, hi: 0x1100}
	m := vcode.NewMachine(mach.DS5000_240(), guarded)
	m.SboxBase, m.SboxLimit = guarded.lo, guarded.hi
	if f := m.Run(&vcode.Program{Name: "r0.unverified", Insns: code}); f != nil {
		t.Fatal(f)
	}
	if !guarded.escaped {
		t.Fatal("the instrumented access stayed inside the region: the clause guards nothing")
	}
}
