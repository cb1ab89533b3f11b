package vcode

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ashs/internal/mach"
)

// runALU executes a single three-register op on fresh machine state.
func runALU(t *testing.T, op Op, a, b uint32) uint32 {
	t.Helper()
	bld := NewBuilder("prop")
	r1, r2 := bld.Temp(), bld.Temp()
	bld.MovI(r1, int32(a))
	bld.MovI(r2, int32(b))
	bld.Op3(op, RRet, r1, r2)
	bld.Ret()
	m := NewMachine(mach.DS5000_240(), NewFlatMem(0, 16))
	if f := m.Run(bld.MustAssemble()); f != nil {
		t.Fatalf("%v(%#x,%#x): %v", op, a, b, f)
	}
	return m.Regs[RRet]
}

// TestALUSemanticsMatchGo checks every unsigned ALU op against Go's own
// arithmetic for random operands.
func TestALUSemanticsMatchGo(t *testing.T) {
	cases := []struct {
		op Op
		f  func(a, b uint32) uint32
	}{
		{OpAddU, func(a, b uint32) uint32 { return a + b }},
		{OpSubU, func(a, b uint32) uint32 { return a - b }},
		{OpAnd, func(a, b uint32) uint32 { return a & b }},
		{OpOr, func(a, b uint32) uint32 { return a | b }},
		{OpXor, func(a, b uint32) uint32 { return a ^ b }},
		{OpNor, func(a, b uint32) uint32 { return ^(a | b) }},
		{OpMulU, func(a, b uint32) uint32 { return a * b }},
		{OpSll, func(a, b uint32) uint32 { return a << (b & 31) }},
		{OpSrl, func(a, b uint32) uint32 { return a >> (b & 31) }},
		{OpSltU, func(a, b uint32) uint32 {
			if a < b {
				return 1
			}
			return 0
		}},
	}
	for _, tc := range cases {
		tc := tc
		err := quick.Check(func(a, b uint32) bool {
			return runALU(t, tc.op, a, b) == tc.f(a, b)
		}, &quick.Config{MaxCount: 60})
		if err != nil {
			t.Errorf("%v: %v", tc.op, err)
		}
	}
}

// TestDivRemSemantics checks unsigned divide/remainder against Go for
// nonzero divisors.
func TestDivRemSemantics(t *testing.T) {
	err := quick.Check(func(a, b uint32) bool {
		if b == 0 {
			b = 1
		}
		return runALU(t, OpDivU, a, b) == a/b && runALU(t, OpRemU, a, b) == a%b
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBswapInvolution: byteswap twice is the identity.
func TestBswapInvolution(t *testing.T) {
	err := quick.Check(func(v uint32) bool {
		b := NewBuilder("b2")
		r := b.Temp()
		b.MovI(r, int32(v))
		b.Bswap(r, r)
		b.Bswap(RRet, r)
		b.Ret()
		m := NewMachine(mach.DS5000_240(), NewFlatMem(0, 16))
		if f := m.Run(b.MustAssemble()); f != nil {
			return false
		}
		return m.Regs[RRet] == v
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCksum32Commutative: the checksum accumulate is commutative in its
// inputs (the property the pipe attribute P_COMMUTATIVE asserts).
func TestCksum32Commutative(t *testing.T) {
	acc := func(vals []uint32) uint32 {
		b := NewBuilder("acc")
		a, r := b.Temp(), b.Temp()
		b.MovI(a, 0)
		for _, v := range vals {
			b.MovI(r, int32(v))
			b.Cksum32(a, r)
		}
		b.Mov(RRet, a)
		b.Ret()
		m := NewMachine(mach.DS5000_240(), NewFlatMem(0, 16))
		if f := m.Run(b.MustAssemble()); f != nil {
			t.Fatal(f)
		}
		return m.Regs[RRet]
	}
	err := quick.Check(func(x, y, z uint32) bool {
		fwd := acc([]uint32{x, y, z})
		rev := acc([]uint32{z, x, y})
		// Folded values must agree (32-bit accumulators may differ by
		// carry timing, the folded checksum may not).
		fold := func(v uint32) uint16 {
			for v>>16 != 0 {
				v = v&0xffff + v>>16
			}
			return uint16(v)
		}
		return fold(fwd) == fold(rev)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMemoryRoundTripWidths: stores then loads of every width agree.
func TestMemoryRoundTripWidths(t *testing.T) {
	err := quick.Check(func(v uint32, off8 uint8) bool {
		off := int32(off8 & 0x3c) // word aligned within the region
		b := NewBuilder("mem")
		base, r := b.Temp(), b.Temp()
		b.MovI(base, 0x100)
		b.MovI(r, int32(v))
		b.St32(base, off, r)
		b.Ld32(RRet, base, off)
		b.Ld16(r, base, off)
		b.Mov(RArg0, r)
		b.Ld8(r, base, off)
		b.Mov(RArg1, r)
		b.Ret()
		m := NewMachine(mach.DS5000_240(), NewFlatMem(0x100, 256))
		if f := m.Run(b.MustAssemble()); f != nil {
			return false
		}
		return m.Regs[RRet] == v &&
			m.Regs[RArg0] == v>>16 &&
			m.Regs[RArg1] == v>>24
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJournalUndoProperty: whatever was lent for writing — bytes, halfwords,
// words, bulk ranges, overlapping in any order, some refused — and whatever
// was written into it, Undo leaves the memory as it was at Reset, bit for
// bit; and once an invocation has sized the log, the next one journals
// without allocating.
func TestJournalUndoProperty(t *testing.T) {
	const base, size = 0x1000, 1024
	r := rand.New(rand.NewSource(41))
	mem := NewFlatMem(base, size)
	j := NewJournal(mem)
	type lent struct {
		addr uint32
		n    int
	}
	invocation := func(stores []lent) {
		j.Reset()
		for _, s := range stores {
			w, err := j.Store(s.addr, s.n)
			if in := s.addr >= base && uint64(s.addr)+uint64(s.n) <= base+size; (err == nil) != (in || s.n == 0) {
				t.Fatalf("Store(%#x, %d): %v", s.addr, s.n, err)
			}
			for i := range w {
				w[i] ^= byte(0x80 | i) // never the byte that was there
			}
		}
	}
	wrote := 0
	for trial := 0; trial < 200; trial++ {
		for i := range mem.Data {
			mem.Data[i] = byte(r.Intn(256))
		}
		snapshot := bytes.Clone(mem.Data)
		stores := make([]lent, 1+r.Intn(40))
		for i := range stores {
			n := []int{0, 1, 2, 4, 4, 4, 16, 1 + r.Intn(300)}[r.Intn(8)]
			// Mostly inside and close together, so that ranges overlap; now
			// and then off either end.
			stores[i] = lent{addr: base + uint32(r.Intn(200)), n: n}
			switch r.Intn(12) {
			case 0:
				stores[i].addr = base + size - uint32(r.Intn(n+1))
			case 1:
				stores[i].addr = base - 1 - uint32(r.Intn(4))
			}
		}
		invocation(stores)
		if !bytes.Equal(mem.Data, snapshot) {
			wrote++
		}
		j.Undo()
		if !bytes.Equal(mem.Data, snapshot) {
			for i := range snapshot {
				if mem.Data[i] != snapshot[i] {
					t.Fatalf("trial %d: byte +%d is %#x after Undo, was %#x (stores %v)", trial, i, mem.Data[i], snapshot[i], stores)
				}
			}
		}
		// Undo empties the log: after new writes, a second one restores nothing.
		mem.Data[0] ^= 0xff
		j.Undo()
		if mem.Data[0] == snapshot[0] {
			t.Fatalf("trial %d: a second Undo replayed the log", trial)
		}
	}
	if wrote < 190 {
		t.Fatalf("only %d of 200 trials changed the memory before Undo", wrote)
	}

	// The handler's second invocation: same stores, log already sized.
	stores := []lent{{base, 4}, {base + 2, 2}, {base + 7, 1}, {base + 64, 512}, {base + 4, 4}, {base + size, 4}}
	invocation(stores)
	if allocs := testing.AllocsPerRun(100, func() { invocation(stores[:5]) }); allocs != 0 {
		t.Errorf("an invocation after Reset allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { invocation(stores[:5]); j.Undo() }); allocs != 0 {
		t.Errorf("an aborted invocation allocates %v times, want 0", allocs)
	}
}
