package vcode

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"ashs/internal/mach"
)

func newTestMachine(memBytes int) (*Machine, *FlatMem) {
	mem := NewFlatMem(0x1000, memBytes)
	m := NewMachine(mach.DS5000_240(), mem)
	return m, mem
}

func TestALUBasics(t *testing.T) {
	b := NewBuilder("alu")
	r1, r2, r3 := b.Temp(), b.Temp(), b.Temp()
	b.MovI(r1, 7)
	b.MovI(r2, 5)
	b.AddU(r3, r1, r2)
	b.Mov(RRet, r3)
	b.Ret()
	prog := b.MustAssemble()

	m, _ := newTestMachine(64)
	if f := m.Run(prog); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 12 {
		t.Fatalf("RRet = %d, want 12", m.Regs[RRet])
	}
	if m.Insns != 5 {
		t.Fatalf("Insns = %d, want 5", m.Insns)
	}
}

func TestALUOperations(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint32
		want uint32
	}{
		{OpAddU, 0xffffffff, 1, 0},
		{OpSubU, 3, 5, 0xfffffffe},
		{OpAnd, 0xff00ff00, 0x0ff00ff0, 0x0f000f00},
		{OpOr, 0xf0, 0x0f, 0xff},
		{OpXor, 0xff, 0x0f, 0xf0},
		{OpNor, 0, 0, 0xffffffff},
		{OpSll, 1, 4, 16},
		{OpSll, 1, 36, 16}, // shift amount masked to 5 bits
		{OpSrl, 0x80000000, 31, 1},
		{OpSltU, 1, 2, 1},
		{OpSltU, 2, 1, 0},
		{OpMulU, 3, 7, 21},
		{OpDivU, 20, 3, 6},
		{OpRemU, 20, 3, 2},
	}
	for _, tc := range cases {
		b := NewBuilder("alu1")
		r1, r2 := b.Temp(), b.Temp()
		b.MovI(r1, int32(tc.a))
		b.MovI(r2, int32(tc.b))
		b.Op3(tc.op, RRet, r1, r2)
		b.Ret()
		m, _ := newTestMachine(16)
		if f := m.Run(b.MustAssemble()); f != nil {
			t.Fatalf("%v: %v", tc.op, f)
		}
		if m.Regs[RRet] != tc.want {
			t.Errorf("%v(%#x,%#x) = %#x, want %#x", tc.op, tc.a, tc.b, m.Regs[RRet], tc.want)
		}
	}
}

func TestImmediates(t *testing.T) {
	b := NewBuilder("imm")
	r := b.Temp()
	b.MovI(r, 0x40)
	b.AddIU(r, r, 2)
	b.SllI(r, r, 4)
	b.SrlI(r, r, 2)
	b.OrI(r, r, 1)
	b.XorI(r, r, 0xff)
	b.AndI(r, r, 0xfff)
	b.SltIU(RRet, r, 0x1000)
	b.Ret()
	m, _ := newTestMachine(16)
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	// 0x40 +2 =0x42; <<4 =0x420; >>2 =0x108; |1 =0x109; ^ff =0x1f6; &fff=0x1f6 < 0x1000
	if m.Regs[RRet] != 1 {
		t.Fatalf("RRet = %d, want 1", m.Regs[RRet])
	}
}

func TestLoadsStores(t *testing.T) {
	b := NewBuilder("mem")
	base, v := b.Temp(), b.Temp()
	b.MovI(base, 0x1000)
	b.MovI(v, 0x11223344)
	b.St32(base, 0, v)
	b.Ld32(RRet, base, 0)
	b.Ld16(v, base, 2)
	b.St16(base, 8, v)
	b.Ld8(v, base, 3)
	b.St8(base, 11, v)
	b.Ret()
	m, mem := newTestMachine(64)
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 0x11223344 {
		t.Fatalf("Ld32 = %#x", m.Regs[RRet])
	}
	if got := binary.BigEndian.Uint16(mem.Data[8:]); got != 0x3344 {
		t.Fatalf("St16 wrote %#x, want 0x3344", got)
	}
	if mem.Data[11] != 0x44 {
		t.Fatalf("St8 wrote %#x, want 0x44", mem.Data[11])
	}
}

func TestIndexedAddressing(t *testing.T) {
	b := NewBuilder("memx")
	base, idx, v := b.Temp(), b.Temp(), b.Temp()
	b.MovI(base, 0x1000)
	b.MovI(idx, 8)
	b.MovI(v, int32(0xdeadbeef&0x7fffffff)|-0x80000000) // 0xdeadbeef as int32
	b.St32X(base, idx, v)
	b.Ld32X(RRet, base, idx)
	b.MovI(idx, 13)
	b.St8X(base, idx, v)
	b.Ld8X(v, base, idx)
	b.Mov(RArg0, v)
	b.Ret()
	m, mem := newTestMachine(64)
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 0xdeadbeef {
		t.Fatalf("Ld32X = %#x", m.Regs[RRet])
	}
	if m.Regs[RArg0] != 0xef || mem.Data[13] != 0xef {
		t.Fatalf("byte indexed ops: reg=%#x mem=%#x", m.Regs[RArg0], mem.Data[13])
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 with a loop.
	b := NewBuilder("loop")
	i, n, sum := b.Temp(), b.Temp(), b.Temp()
	b.MovI(i, 1)
	b.MovI(n, 11)
	b.MovI(sum, 0)
	top := b.NewLabel()
	b.Bind(top)
	b.AddU(sum, sum, i)
	b.AddIU(i, i, 1)
	b.BltU(i, n, top)
	b.Mov(RRet, sum)
	b.Ret()
	m, _ := newTestMachine(16)
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 55 {
		t.Fatalf("sum = %d, want 55", m.Regs[RRet])
	}
}

func TestForwardBranch(t *testing.T) {
	b := NewBuilder("fwd")
	r := b.Temp()
	done := b.NewLabel()
	b.MovI(r, 1)
	b.Beq(r, r, done)
	b.MovI(RRet, 99) // skipped
	b.Bind(done)
	b.MovI(RRet, 42)
	b.Ret()
	m, _ := newTestMachine(16)
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 42 {
		t.Fatalf("RRet = %d, want 42", m.Regs[RRet])
	}
}

func TestUnboundLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	l := b.NewLabel()
	b.Jmp(l)
	if _, err := b.Assemble(); err == nil {
		t.Fatal("Assemble accepted unbound label")
	}
}

func TestDoubleBindFails(t *testing.T) {
	b := NewBuilder("bad")
	l := b.NewLabel()
	b.Bind(l)
	b.Nop()
	b.Bind(l)
	if _, err := b.Assemble(); err == nil {
		t.Fatal("Assemble accepted doubly-bound label")
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	b := NewBuilder("div0")
	r1, r2 := b.Temp(), b.Temp()
	b.MovI(r1, 10)
	b.MovI(r2, 0)
	b.DivU(RRet, r1, r2)
	b.Ret()
	m, _ := newTestMachine(16)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultDivZero {
		t.Fatalf("fault = %v, want divide-by-zero", f)
	}
}

func TestSignedArithFaults(t *testing.T) {
	b := NewBuilder("signed")
	b.Signed(OpAdd, RRet, RZero, RZero)
	b.Ret()
	m, _ := newTestMachine(16)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultOverflow {
		t.Fatalf("fault = %v, want overflow", f)
	}
}

func TestFloatFaults(t *testing.T) {
	b := NewBuilder("float")
	b.Float(OpFAdd, RRet, RZero, RZero)
	b.Ret()
	m, _ := newTestMachine(16)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultFloat {
		t.Fatalf("fault = %v, want float", f)
	}
}

func TestBadAddressFaults(t *testing.T) {
	b := NewBuilder("wild")
	r := b.Temp()
	b.MovI(r, 0x500000) // outside FlatMem
	b.Ld32(RRet, r, 0)
	b.Ret()
	m, _ := newTestMachine(64)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultBadAddr {
		t.Fatalf("fault = %v, want bad address", f)
	}
	if f.Addr != 0x500000 {
		t.Fatalf("fault addr = %#x", f.Addr)
	}
}

func TestUnalignedFaults(t *testing.T) {
	b := NewBuilder("unaligned")
	r := b.Temp()
	b.MovI(r, 0x1001)
	b.Ld32(RRet, r, 0)
	b.Ret()
	m, _ := newTestMachine(64)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultUnaligned {
		t.Fatalf("fault = %v, want unaligned", f)
	}
}

func TestInsnBudgetFaults(t *testing.T) {
	b := NewBuilder("spin")
	top := b.NewLabel()
	b.Bind(top)
	b.Jmp(top)
	prog := b.MustAssemble()
	m, _ := newTestMachine(16)
	m.InsnBudget = 1000
	f := m.Run(prog)
	if f == nil || f.Kind != FaultBudget {
		t.Fatalf("fault = %v, want budget", f)
	}
	if m.Insns > 1001 {
		t.Fatalf("ran %d insns past budget", m.Insns)
	}
}

func TestCycleLimitFaults(t *testing.T) {
	b := NewBuilder("spin")
	top := b.NewLabel()
	b.Bind(top)
	b.Jmp(top)
	prog := b.MustAssemble()
	m, _ := newTestMachine(16)
	m.CycleLimit = 500
	f := m.Run(prog)
	if f == nil || f.Kind != FaultBudget {
		t.Fatalf("fault = %v, want budget (cycle limit)", f)
	}
}

func TestCallSyscall(t *testing.T) {
	b := NewBuilder("call")
	b.MovI(RArg0, 21)
	b.Call("double")
	b.Ret()
	m, _ := newTestMachine(16)
	m.Syms["double"] = func(m *Machine) error {
		m.Regs[RRet] = m.Regs[RArg0] * 2
		m.Charge(10)
		return nil
	}
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 42 {
		t.Fatalf("RRet = %d, want 42", m.Regs[RRet])
	}
}

func TestCallUnknownSymFaults(t *testing.T) {
	b := NewBuilder("badcall")
	b.Call("no_such_entry")
	b.Ret()
	m, _ := newTestMachine(16)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultBadCall {
		t.Fatalf("fault = %v, want bad call", f)
	}
}

func TestJmpRWithinProgram(t *testing.T) {
	b := NewBuilder("jmpr")
	r := b.Temp()
	b.MovI(r, 3) // index of the MovI RRet,1 below
	b.JmpR(r)
	b.MovI(RRet, 99)
	b.MovI(RRet, 1)
	b.Ret()
	m, _ := newTestMachine(16)
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 1 {
		t.Fatalf("RRet = %d, want 1", m.Regs[RRet])
	}
}

func TestJmpROutOfRangeFaults(t *testing.T) {
	b := NewBuilder("jmpr-bad")
	r := b.Temp()
	b.MovI(r, 1000)
	b.JmpR(r)
	b.Ret()
	m, _ := newTestMachine(16)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultBadJump {
		t.Fatalf("fault = %v, want bad jump", f)
	}
}

func TestCksum32MatchesReference(t *testing.T) {
	// The vcode cksum32 op implements 32-bit ones-complement accumulation
	// (end-around carry). Property: folding the 32-bit accumulator to
	// 16 bits matches the RFC 1071 reference computed bytewise.
	err := quick.Check(func(words []uint32) bool {
		b := NewBuilder("cksum")
		acc := b.Persistent()
		_ = acc
		prog := b.MustAssemble()
		_ = prog

		var accv uint32
		m, _ := newTestMachine(16)
		for _, w := range words {
			cb := NewBuilder("step")
			r := cb.Temp()
			a := cb.Temp()
			cb.MovI(a, int32(accv))
			cb.MovI(r, int32(w))
			cb.Cksum32(a, r)
			cb.Mov(RRet, a)
			cb.Ret()
			if f := m.Run(cb.MustAssemble()); f != nil {
				return false
			}
			accv = m.Regs[RRet]
		}
		got := fold16(accv)
		want := refCksum(words)
		return got == want
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// fold16 folds a 32-bit ones-complement accumulator to 16 bits.
func fold16(v uint32) uint16 {
	for v>>16 != 0 {
		v = v&0xffff + v>>16
	}
	return uint16(v)
}

// refCksum is a textbook RFC 1071 independent implementation.
func refCksum(words []uint32) uint16 {
	var sum uint64
	for _, w := range words {
		sum += uint64(w >> 16)
		sum += uint64(w & 0xffff)
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

func TestBswap(t *testing.T) {
	b := NewBuilder("bswap")
	r := b.Temp()
	b.MovI(r, 0x11223344)
	b.Bswap(RRet, r)
	b.Ret()
	m, _ := newTestMachine(16)
	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	if m.Regs[RRet] != 0x44332211 {
		t.Fatalf("bswap = %#x, want 0x44332211", m.Regs[RRet])
	}
}

func TestPipePseudoOpsFaultOutsidePipes(t *testing.T) {
	b := NewBuilder("pipe-raw")
	b.Input32(RRet)
	b.Ret()
	m, _ := newTestMachine(16)
	f := m.Run(b.MustAssemble())
	if f == nil || f.Kind != FaultIllegalOp {
		t.Fatalf("fault = %v, want illegal op", f)
	}
}

func TestRegisterClassesTracked(t *testing.T) {
	b := NewBuilder("regs")
	p1 := b.Persistent()
	_ = b.Temp()
	p2 := b.Persistent()
	b.Ret()
	prog := b.MustAssemble()
	if len(prog.Persistent) != 2 || prog.Persistent[0] != p1 || prog.Persistent[1] != p2 {
		t.Fatalf("Persistent = %v, want [%d %d]", prog.Persistent, p1, p2)
	}
}

func TestAllocatorSkipsReservedRegs(t *testing.T) {
	b := NewBuilder("many")
	seen := map[Reg]bool{}
	for i := 0; i < 18; i++ {
		r := b.Temp()
		if r == RZero || r == RSbox || r == RInput {
			t.Fatalf("allocator handed out reserved register r%d", r)
		}
		if seen[r] {
			t.Fatalf("register r%d allocated twice", r)
		}
		seen[r] = true
	}
}

func TestCacheCosting(t *testing.T) {
	// A cold streaming load loop should cost ~4 cycles/word for the loads.
	p := mach.DS5000_240()
	mem := NewFlatMem(0, 4096)
	m := NewMachine(p, mem)
	m.Cache = mach.NewCache(p)

	b := NewBuilder("stream")
	base, idx, end, v := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(base, 0)
	b.MovI(idx, 0)
	b.MovI(end, 4096)
	top := b.NewLabel()
	b.Bind(top)
	b.Ld32X(v, base, idx)
	b.AddIU(idx, idx, 4)
	b.BltU(idx, end, top)
	b.Ret()

	if f := m.Run(b.MustAssemble()); f != nil {
		t.Fatal(f)
	}
	// Per word: load 4 (amortized) + addiu 1 + branch 1 = 6 cycles.
	perWord := float64(m.Cycles-5) / 1024 // minus setup/ret
	if perWord < 5.9 || perWord > 6.1 {
		t.Fatalf("streaming load loop = %.2f cycles/word, want ~6", perWord)
	}
}

func TestProgramCloneIndependent(t *testing.T) {
	b := NewBuilder("clone")
	b.MovI(RRet, 1)
	b.Ret()
	p := b.MustAssemble()
	q := p.Clone()
	q.Insns[0].Imm = 2
	if p.Insns[0].Imm != 1 {
		t.Fatal("Clone shares instruction storage")
	}
}

func TestDisassemblyRendersAllOps(t *testing.T) {
	b := NewBuilder("disasm")
	r := b.Temp()
	b.MovI(r, 1)
	b.Ld32(r, r, 4)
	b.St32(r, 4, r)
	b.Ld32X(r, r, r)
	b.St32X(r, r, r)
	b.Cksum32(r, r)
	b.Call("x")
	b.Ret()
	p := b.MustAssemble()
	s := p.String()
	if s == "" || len(s) < 40 {
		t.Fatalf("unexpected disassembly: %q", s)
	}
	for _, in := range p.Insns {
		if in.String() == "" {
			t.Fatalf("empty rendering for %v", in.Op)
		}
	}
}

func TestFlatMemBounds(t *testing.T) {
	mem := NewFlatMem(0x1000, 16)
	if _, err := Load32(mem, 0x100c); err != nil {
		t.Fatal("in-bounds load failed")
	}
	if _, err := Load32(mem, 0x100e); err == nil {
		t.Fatal("straddling load succeeded")
	}
	if _, err := mem.Load(0xfff, 1); err == nil {
		t.Fatal("below-base load succeeded")
	}
	if err := Store32(mem, 0x1010, 1); err == nil {
		t.Fatal("out-of-bounds store succeeded")
	}
}

func TestFlatMemRoundTrip(t *testing.T) {
	err := quick.Check(func(off uint8, v uint32) bool {
		mem := NewFlatMem(0x2000, 1024)
		addr := 0x2000 + uint32(off)*4
		if err := Store32(mem, addr, v); err != nil {
			return false
		}
		got, err := Load32(mem, addr)
		return err == nil && got == v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
