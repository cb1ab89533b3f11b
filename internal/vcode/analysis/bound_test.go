package analysis

import (
	"encoding/binary"
	"strings"
	"testing"

	"ashs/internal/mach"
	"ashs/internal/vcode"
)

// sparseCopy is the sparse-record loop: ten trips, a store skipped on a
// zero word, then a diamond after the loop whose long side is two
// instructions longer.
func sparseCopy() *vcode.Program {
	b := vcode.NewBuilder("sparse-copy")
	dst, i, n, v := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(dst, 0x2000)
	b.MovI(i, 0)
	b.MovI(n, 40)
	top, skip, short, join := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.Ld32X(v, vcode.RArg0, i)
	b.Beq(v, vcode.RZero, skip)
	b.St32X(dst, i, v)
	b.Bind(skip)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.Beq(v, vcode.RZero, short)
	b.MovI(vcode.RRet, 1)
	b.MovI(vcode.RRet, 2)
	b.Jmp(join)
	b.Bind(short)
	b.MovI(vcode.RRet, 0)
	b.Bind(join)
	b.Ret()
	return b.MustAssemble()
}

// TestBoundIsTheLongestRun: over nonzero words the sparse copy takes the
// longest path on every trip and after the loop, and runs exactly its
// bound; over zero words it runs less.
func TestBoundIsTheLongestRun(t *testing.T) {
	p := sparseCopy()
	got, err := Bound(p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Cost{Insns: 3 + 10*5 + 4 + 1}); got != want {
		t.Fatalf("Bound = %+v, want %+v\n%s", got, want, p)
	}
	for _, fill := range []uint32{7, 0} {
		mem := vcode.NewFlatMem(0x1000, 0x2000)
		for off := 0; off < 40; off += 4 {
			binary.BigEndian.PutUint32(mem.Data[off:], fill)
		}
		m := vcode.NewMachine(mach.DS5000_240(), mem)
		m.Regs[vcode.RArg0] = 0x1000
		if f := m.Run(p); f != nil {
			t.Fatal(f)
		}
		if fill != 0 && m.Insns != got.Insns || fill == 0 && m.Insns >= got.Insns {
			t.Errorf("words of %#x: ran %d instructions, bound %d", fill, m.Insns, got.Insns)
		}
	}
}

// TestBoundCountsMovedBytes: each ash_copy or ash_dilp on the longest path
// moves maxMsg bytes; another entry point moves none, and every call is
// one instruction.
func TestBoundCountsMovedBytes(t *testing.T) {
	b := vcode.NewBuilder("copies")
	skip := b.NewLabel()
	b.Call("ash_copy")
	b.Beq(vcode.RArg0, vcode.RZero, skip)
	b.Call("ash_dilp")
	b.Call("ash_send")
	b.Bind(skip)
	b.Ret()
	p := b.MustAssemble()
	got, err := Bound(p, 1500)
	if want := (Cost{Insns: 5, Bytes: 2 * 1500}); err != nil || got != want {
		t.Fatalf("Bound = %+v, %v; want %+v\n%s", got, err, want, p)
	}
}

// TestBoundRefuses: no bound, and the error names the loop or the jump.
func TestBoundRefuses(t *testing.T) {
	unproven := vcode.NewBuilder("unproven")
	i, n := unproven.Temp(), unproven.Temp()
	unproven.MovI(i, 0)
	unproven.Ld32(n, vcode.RArg0, 0) // a bound from the message
	top := unproven.NewLabel()
	unproven.Bind(top)
	unproven.AddIU(i, i, 4)
	unproven.BltU(i, n, top)
	unproven.Ret()

	indirect := vcode.NewBuilder("indirect")
	indirect.MovI(vcode.RArg0, 2)
	indirect.JmpR(vcode.RArg0)
	indirect.Ret()

	for _, c := range []struct {
		p    *vcode.Program
		want string
	}{
		{unproven.MustAssemble(), "loop at pc 2"},
		{indirect.MustAssemble(), "indirect jump at pc 1"},
	} {
		if got, err := Bound(c.p, 1500); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Bound = %+v, %v; want an error naming %q", c.p.Name, got, err, c.want)
		}
	}
}
