package vcode

import "fmt"

// Label names a forward or backward branch target during construction.
type Label int

// Builder constructs a Program with symbolic labels and register
// allocation. It mirrors the paper's pipe_lambda / p_getreg style: callers
// allocate registers by class (temporary or persistent) and emit
// instructions; Assemble resolves labels.
type Builder struct {
	name       string
	insns      []Insn
	labels     []int // label -> instruction index (-1 = unbound)
	fixups     []fixup
	nextReg    Reg
	persistent []Reg
	err        error
}

type fixup struct {
	insn  int
	label Label
}

// Calling convention for OpCall kernel entry points and handler invocation:
// arguments arrive in RArg0..RArg3, results return in RRet. The builder
// allocates scratch registers starting above these.
const (
	RRet  Reg = 2
	RArg0 Reg = 4
	RArg1 Reg = 5
	RArg2 Reg = 6
	RArg3 Reg = 7
)

// NewBuilder starts a new program named name. Registers R8..R27 are
// allocatable; R0 is zero, R2/R4-R7 are the calling convention, and R28 and
// R30 are reserved for the sandbox and pipe input.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, nextReg: 8}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("vcode %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Temp allocates a temporary register (not preserved across invocations).
func (b *Builder) Temp() Reg {
	r := b.alloc()
	return r
}

// Persistent allocates a persistent register: its value is preserved
// across pipe invocations and can be imported/exported by protocol code
// (e.g. a checksum accumulator).
func (b *Builder) Persistent() Reg {
	r := b.alloc()
	if r != 0 {
		b.persistent = append(b.persistent, r)
	}
	return r
}

func (b *Builder) alloc() Reg {
	r := b.nextReg
	for r == RSbox || r == RInput || r == RZero {
		r++
	}
	if r >= NumRegs-1 { // keep r31 free as link-ish scratch
		b.fail("out of registers")
		return 0
	}
	b.nextReg = r + 1
	return r
}

// NewLabel creates an unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind attaches label l to the next emitted instruction.
func (b *Builder) Bind(l Label) {
	if int(l) >= len(b.labels) {
		b.fail("bind of unknown label %d", l)
		return
	}
	if b.labels[l] != -1 {
		b.fail("label %d bound twice", l)
		return
	}
	b.labels[l] = len(b.insns)
}

func (b *Builder) emit(in Insn) {
	b.insns = append(b.insns, in)
}

func (b *Builder) emitBranch(in Insn, l Label) {
	if int(l) >= len(b.labels) {
		b.fail("branch to unknown label %d", l)
		return
	}
	b.fixups = append(b.fixups, fixup{insn: len(b.insns), label: l})
	b.emit(in)
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(Insn{Op: OpNop}) }

// MovI emits rd <- imm.
func (b *Builder) MovI(rd Reg, imm int32) { b.emit(Insn{Op: OpMovI, Rd: rd, Imm: imm}) }

// Mov emits rd <- rs.
func (b *Builder) Mov(rd, rs Reg) { b.emit(Insn{Op: OpMov, Rd: rd, Rs: rs}) }

// Op3 emits a three-register ALU operation.
func (b *Builder) Op3(op Op, rd, rs, rt Reg) { b.emit(Insn{Op: op, Rd: rd, Rs: rs, Rt: rt}) }

// AddU emits rd <- rs + rt (unsigned, non-trapping).
func (b *Builder) AddU(rd, rs, rt Reg) { b.Op3(OpAddU, rd, rs, rt) }

// SubU emits rd <- rs - rt.
func (b *Builder) SubU(rd, rs, rt Reg) { b.Op3(OpSubU, rd, rs, rt) }

// And emits rd <- rs & rt.
func (b *Builder) And(rd, rs, rt Reg) { b.Op3(OpAnd, rd, rs, rt) }

// Or emits rd <- rs | rt.
func (b *Builder) Or(rd, rs, rt Reg) { b.Op3(OpOr, rd, rs, rt) }

// Xor emits rd <- rs ^ rt.
func (b *Builder) Xor(rd, rs, rt Reg) { b.Op3(OpXor, rd, rs, rt) }

// SltU emits rd <- (rs < rt), unsigned.
func (b *Builder) SltU(rd, rs, rt Reg) { b.Op3(OpSltU, rd, rs, rt) }

// MulU emits rd <- rs * rt.
func (b *Builder) MulU(rd, rs, rt Reg) { b.Op3(OpMulU, rd, rs, rt) }

// DivU emits rd <- rs / rt (the sandboxer inserts the zero check).
func (b *Builder) DivU(rd, rs, rt Reg) { b.Op3(OpDivU, rd, rs, rt) }

// RemU emits rd <- rs % rt.
func (b *Builder) RemU(rd, rs, rt Reg) { b.Op3(OpRemU, rd, rs, rt) }

// AddIU emits rd <- rs + imm.
func (b *Builder) AddIU(rd, rs Reg, imm int32) {
	b.emit(Insn{Op: OpAddIU, Rd: rd, Rs: rs, Imm: imm})
}

// AndI emits rd <- rs & imm.
func (b *Builder) AndI(rd, rs Reg, imm int32) {
	b.emit(Insn{Op: OpAndI, Rd: rd, Rs: rs, Imm: imm})
}

// OrI emits rd <- rs | imm.
func (b *Builder) OrI(rd, rs Reg, imm int32) {
	b.emit(Insn{Op: OpOrI, Rd: rd, Rs: rs, Imm: imm})
}

// XorI emits rd <- rs ^ imm.
func (b *Builder) XorI(rd, rs Reg, imm int32) {
	b.emit(Insn{Op: OpXorI, Rd: rd, Rs: rs, Imm: imm})
}

// SllI emits rd <- rs << imm.
func (b *Builder) SllI(rd, rs Reg, imm int32) {
	b.emit(Insn{Op: OpSllI, Rd: rd, Rs: rs, Imm: imm})
}

// SrlI emits rd <- rs >> imm.
func (b *Builder) SrlI(rd, rs Reg, imm int32) {
	b.emit(Insn{Op: OpSrlI, Rd: rd, Rs: rs, Imm: imm})
}

// SltIU emits rd <- (rs < imm), unsigned.
func (b *Builder) SltIU(rd, rs Reg, imm int32) {
	b.emit(Insn{Op: OpSltIU, Rd: rd, Rs: rs, Imm: imm})
}

// Ld32 emits rd <- mem32[rs+off].
func (b *Builder) Ld32(rd, rs Reg, off int32) {
	b.emit(Insn{Op: OpLd32, Rd: rd, Rs: rs, Imm: off})
}

// Ld16 emits rd <- zero-extended mem16[rs+off].
func (b *Builder) Ld16(rd, rs Reg, off int32) {
	b.emit(Insn{Op: OpLd16, Rd: rd, Rs: rs, Imm: off})
}

// Ld8 emits rd <- zero-extended mem8[rs+off].
func (b *Builder) Ld8(rd, rs Reg, off int32) {
	b.emit(Insn{Op: OpLd8, Rd: rd, Rs: rs, Imm: off})
}

// St32 emits mem32[rs+off] <- rt.
func (b *Builder) St32(rs Reg, off int32, rt Reg) {
	b.emit(Insn{Op: OpSt32, Rs: rs, Imm: off, Rt: rt})
}

// St16 emits mem16[rs+off] <- rt.
func (b *Builder) St16(rs Reg, off int32, rt Reg) {
	b.emit(Insn{Op: OpSt16, Rs: rs, Imm: off, Rt: rt})
}

// St8 emits mem8[rs+off] <- rt.
func (b *Builder) St8(rs Reg, off int32, rt Reg) {
	b.emit(Insn{Op: OpSt8, Rs: rs, Imm: off, Rt: rt})
}

// Ld32X emits rd <- mem32[rs+rt] (indexed addressing).
func (b *Builder) Ld32X(rd, rs, rt Reg) { b.emit(Insn{Op: OpLd32X, Rd: rd, Rs: rs, Rt: rt}) }

// St32X emits mem32[rs+rt] <- rd (indexed addressing).
func (b *Builder) St32X(rs, rt, rd Reg) { b.emit(Insn{Op: OpSt32X, Rs: rs, Rt: rt, Rd: rd}) }

// Ld8X emits rd <- zero-extended mem8[rs+rt].
func (b *Builder) Ld8X(rd, rs, rt Reg) { b.emit(Insn{Op: OpLd8X, Rd: rd, Rs: rs, Rt: rt}) }

// St8X emits mem8[rs+rt] <- rd.
func (b *Builder) St8X(rs, rt, rd Reg) { b.emit(Insn{Op: OpSt8X, Rs: rs, Rt: rt, Rd: rd}) }

// Beq emits: if rs == rt goto l.
func (b *Builder) Beq(rs, rt Reg, l Label) { b.emitBranch(Insn{Op: OpBeq, Rs: rs, Rt: rt}, l) }

// Bne emits: if rs != rt goto l.
func (b *Builder) Bne(rs, rt Reg, l Label) { b.emitBranch(Insn{Op: OpBne, Rs: rs, Rt: rt}, l) }

// BltU emits: if rs < rt goto l (unsigned).
func (b *Builder) BltU(rs, rt Reg, l Label) { b.emitBranch(Insn{Op: OpBltU, Rs: rs, Rt: rt}, l) }

// BgeU emits: if rs >= rt goto l (unsigned).
func (b *Builder) BgeU(rs, rt Reg, l Label) { b.emitBranch(Insn{Op: OpBgeU, Rs: rs, Rt: rt}, l) }

// Jmp emits an unconditional jump to l.
func (b *Builder) Jmp(l Label) { b.emitBranch(Insn{Op: OpJmp}, l) }

// JmpR emits an indirect jump through rs.
func (b *Builder) JmpR(rs Reg) { b.emit(Insn{Op: OpJmpR, Rs: rs}) }

// Call emits a call to the named kernel entry point.
func (b *Builder) Call(sym string) { b.emit(Insn{Op: OpCall, Sym: Intern(sym)}) }

// Ret emits a handler return.
func (b *Builder) Ret() { b.emit(Insn{Op: OpRet}) }

// Cksum32 emits the Internet-checksum accumulate extension:
// rd <- rd + rs with end-around carry (p_cksum32 in the paper's Fig. 2).
func (b *Builder) Cksum32(rd, rs Reg) { b.emit(Insn{Op: OpCksum32, Rd: rd, Rs: rs}) }

// Bswap emits the byteswap extension: rd <- byte-reversed rs.
func (b *Builder) Bswap(rd, rs Reg) { b.emit(Insn{Op: OpBswap, Rd: rd, Rs: rs}) }

// Input32 emits the pipe pseudo-op: rd <- next 32 bits of pipe input
// (p_input32). Valid only inside pipe bodies.
func (b *Builder) Input32(rd Reg) { b.emit(Insn{Op: OpInput32, Rd: rd}) }

// Output32 emits the pipe pseudo-op: pass rs to the next pipe (p_output32).
func (b *Builder) Output32(rs Reg) { b.emit(Insn{Op: OpOutput32, Rs: rs}) }

// Signed emits a signed (trapping) arithmetic op, for verifier tests.
func (b *Builder) Signed(op Op, rd, rs, rt Reg) {
	if !op.Is(Signed) {
		b.fail("Signed() with non-signed op %v", op)
		return
	}
	b.Op3(op, rd, rs, rt)
}

// Float emits a floating-point op, for verifier tests.
func (b *Builder) Float(op Op, rd, rs, rt Reg) {
	if !op.Is(Float) {
		b.fail("Float() with non-float op %v", op)
		return
	}
	b.Op3(op, rd, rs, rt)
}

// RawSandboxOp emits a sandbox-reserved op, for verifier tests (downloaded
// code containing these must be rejected).
func (b *Builder) RawSandboxOp(op Op) { b.emit(Insn{Op: op}) }

// Assemble resolves labels and returns the finished program.
func (b *Builder) Assemble() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		at := b.labels[f.label]
		if at == -1 {
			return nil, fmt.Errorf("vcode %s: label %d never bound", b.name, f.label)
		}
		b.insns[f.insn].Target = int32(at)
	}
	// A program must end in Ret so the machine always terminates cleanly.
	if len(b.insns) == 0 || b.insns[len(b.insns)-1].Op != OpRet {
		b.insns = append(b.insns, Insn{Op: OpRet})
	}
	return &Program{
		Name:       b.name,
		Insns:      b.insns,
		Persistent: append([]Reg(nil), b.persistent...),
		NextReg:    b.nextReg,
	}, nil
}

// MustAssemble is Assemble that panics on error (for static handler code).
func (b *Builder) MustAssemble() *Program {
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}
