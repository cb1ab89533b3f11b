package vcode

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"ashs/internal/mach"
)

// sampleInsn is one instance of op with every field set.
func sampleInsn(op Op) Insn {
	return Insn{Op: op, Rd: 1, Rs: 2, Rt: 3, Imm: -4, Target: 5, Sym: Intern("ash_send")}
}

// sampleText is what Insn.String printed for sampleInsn of each op before
// the opcode table existed: lint findings and disassembly quote it.
var sampleText = [NumOps]string{
	OpNop:       "nop",
	OpMovI:      "movi r1, -4",
	OpMov:       "mov r1, r2",
	OpAddU:      "addu r1, r2, r3",
	OpSubU:      "subu r1, r2, r3",
	OpAnd:       "and r1, r2, r3",
	OpOr:        "or r1, r2, r3",
	OpXor:       "xor r1, r2, r3",
	OpNor:       "nor r1, r2, r3",
	OpSll:       "sll r1, r2, r3",
	OpSrl:       "srl r1, r2, r3",
	OpSltU:      "sltu r1, r2, r3",
	OpMulU:      "mulu r1, r2, r3",
	OpAddIU:     "addiu r1, r2, -4",
	OpAndI:      "andi r1, r2, -4",
	OpOrI:       "ori r1, r2, -4",
	OpXorI:      "xori r1, r2, -4",
	OpSllI:      "slli r1, r2, -4",
	OpSrlI:      "srli r1, r2, -4",
	OpSltIU:     "sltiu r1, r2, -4",
	OpDivU:      "divu r1, r2, r3",
	OpRemU:      "remu r1, r2, r3",
	OpAdd:       "add r1, r2, r3",
	OpSub:       "sub r1, r2, r3",
	OpDiv:       "div r1, r2, r3",
	OpFAdd:      "fadd r1, r2, r3",
	OpFMul:      "fmul r1, r2, r3",
	OpLd32:      "ld32 r1, [r2-4]",
	OpLd16:      "ld16 r1, [r2-4]",
	OpLd8:       "ld8 r1, [r2-4]",
	OpSt32:      "st32 [r2-4], r3",
	OpSt16:      "st16 [r2-4], r3",
	OpSt8:       "st8 [r2-4], r3",
	OpLd32X:     "ld32x r1, [r2+r3]",
	OpSt32X:     "st32x [r2+r3], r1",
	OpLd8X:      "ld8x r1, [r2+r3]",
	OpSt8X:      "st8x [r2+r3], r1",
	OpBeq:       "beq r2, r3, @5",
	OpBne:       "bne r2, r3, @5",
	OpBltU:      "bltu r2, r3, @5",
	OpBgeU:      "bgeu r2, r3, @5",
	OpJmp:       "jmp @5",
	OpJmpR:      "jmpr r2",
	OpCall:      "call ash_send",
	OpRet:       "ret",
	OpCksum32:   "cksum32 r1, r2",
	OpBswap:     "bswap r1, r2",
	OpInput32:   "input32 r1",
	OpOutput32:  "output32 r2",
	OpSboxMask:  "sbox.mask r1, r2-4",
	OpSboxChk:   "sbox.chk r1",
	OpChkDiv:    "chk.div r2",
	OpChkBudget: "chk.budget -4",
}

// TestOpTable checks opTable against what it describes: every op has a
// row, the row prints the instruction as the per-op switch it replaced
// did, its format names the fields its register effects touch, and those
// effects bound what the interpreter does.
func TestOpTable(t *testing.T) {
	if n := unsafe.Sizeof(Insn{}); n != 16 {
		t.Errorf("unsafe.Sizeof(Insn{}) = %d, want 16", n)
	}
	for op := Op(0); op < NumOps; op++ {
		if opTable[op].name == "" {
			t.Errorf("op %d has no row in opTable", op)
		}
		if got := sampleInsn(op).String(); got != sampleText[op] {
			t.Errorf("%v prints %q, want %q", op, got, sampleText[op])
		}
		row := opTable[op]
		if got, want := formatFields[row.format], (row.defs|row.uses)&(fRd|fRs|fRt); got != want {
			t.Errorf("%v's format names fields %03b, its effects %03b", op, got, want)
		}
	}
	if got, want := sampleInsn(NumOps).String(), fmt.Sprintf("op(%d) r1, r2, r3", NumOps); got != want {
		t.Errorf("an op without a row prints %q, want %q", got, want)
	}

	// Register effects, over random register files. Ops that end a block
	// and calls are left out: where control goes, or what an entry point
	// does, is not the op's own effect.
	mem := NewFlatMem(0, 256)
	m := NewMachine(mach.DS5000_240(), mem)
	m.SboxBase, m.SboxLimit, m.SoftBudget = 0, 128, 3
	rng := rand.New(rand.NewSource(42))
	word := func() uint32 {
		if rng.Intn(2) == 0 {
			return uint32(rng.Intn(32)) * 4 // an aligned address inside mem, or zero
		}
		return rng.Uint32()
	}
	memInit := make([]byte, len(mem.Data))
	type outcome struct {
		regs  [NumRegs]uint32
		mem   string
		fault FaultKind
	}
	run := func(in Insn, regs [NumRegs]uint32) outcome {
		copy(mem.Data, memInit)
		m.Regs = regs
		var o outcome
		if f := m.Run(&Program{Insns: []Insn{in, {Op: OpRet}}}); f != nil {
			o.fault = f.Kind
		}
		o.regs, o.mem = m.Regs, string(mem.Data)
		return o
	}
	for op := Op(0); op < NumOps; op++ {
		if op.Is(EndsBlock) || op == OpCall {
			continue
		}
		for trial := 0; trial < 100; trial++ {
			in := Insn{Op: op, Rd: Reg(rng.Intn(NumRegs)), Rs: Reg(rng.Intn(NumRegs)),
				Rt: Reg(rng.Intn(NumRegs)), Imm: int32(rng.Intn(8)) * 4}
			rng.Read(memInit)
			var regs [NumRegs]uint32
			for r := range regs {
				regs[r] = word()
			}
			defs, uses := in.Defs(), in.Uses()
			base := run(in, regs)
			for r := Reg(0); r < NumRegs; r++ {
				if !defs.Has(r) && base.regs[r] != regs[r] {
					t.Fatalf("%v wrote r%d, outside Defs %032b", in, r, defs)
				}
			}
			for r := Reg(0); r < NumRegs; r++ {
				if uses.Has(r) {
					continue
				}
				perturbed := regs
				perturbed[r] ^= rng.Uint32() | 1
				got := run(in, perturbed)
				if got.fault != base.fault || got.mem != base.mem {
					t.Fatalf("%v: r%d, outside Uses %032b, changed the fault (%d, %d) or memory",
						in, r, uses, base.fault, got.fault)
				}
				if base.fault != FaultNone {
					continue // a faulting op wrote nothing
				}
				for d := Reg(0); d < NumRegs; d++ {
					if defs.Has(d) && got.regs[d] != base.regs[d] {
						t.Fatalf("%v: r%d, outside Uses %032b, changed r%d", in, r, uses, d)
					}
				}
			}
		}
	}
}
