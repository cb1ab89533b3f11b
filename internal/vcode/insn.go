// Package vcode is this repository's stand-in for VCODE [Engler, PLDI'96]:
// the low-level dynamic code generation system in which ASHs and pipes are
// written. The interface is that of an extended RISC machine — low-level
// register-to-register operations, plus the networking extensions the paper
// adds (Internet checksum accumulate, byteswap).
//
// Where the original VCODE emitted MIPS machine code at runtime, we "emit"
// a pre-decoded instruction array executed by a costed interpreter
// (Machine). The substitution preserves what the paper measures: dynamic
// instruction counts and per-instruction cycle charges against the
// DECstation memory model (see DESIGN.md §1).
//
// Instructions are deliberately MIPS-flavoured: unsigned arithmetic never
// traps, signed arithmetic and floating point exist only so that the
// sandbox verifier has something to reject (Section III-B1 of the paper).
package vcode

import "fmt"

// Reg names one of the 32 machine registers. R0 is hardwired to zero.
type Reg uint8

// NumRegs is the size of the register file.
const NumRegs = 32

// Reserved registers.
const (
	RZero  Reg = 0  // always zero
	RSbox  Reg = 28 // dedicated sandbox scratch (SFI address computation)
	RInput Reg = 30 // p_inputr: a pipe's input word
)

// Op is a vcode opcode.
type Op uint8

const (
	OpNop Op = iota

	// Register / immediate moves.
	OpMovI // rd <- imm
	OpMov  // rd <- rs

	// Unsigned ALU (never raises exceptions).
	OpAddU // rd <- rs + rt
	OpSubU // rd <- rs - rt
	OpAnd  // rd <- rs & rt
	OpOr   // rd <- rs | rt
	OpXor  // rd <- rs ^ rt
	OpNor  // rd <- ^(rs | rt)
	OpSll  // rd <- rs << (rt & 31)
	OpSrl  // rd <- rs >> (rt & 31)
	OpSltU // rd <- 1 if rs < rt else 0 (unsigned)
	OpMulU // rd <- rs * rt (low 32)

	// Immediate forms.
	OpAddIU // rd <- rs + imm
	OpAndI  // rd <- rs & imm
	OpOrI   // rd <- rs | imm
	OpXorI  // rd <- rs ^ imm
	OpSllI  // rd <- rs << imm
	OpSrlI  // rd <- rs >> imm
	OpSltIU // rd <- 1 if rs < imm else 0 (unsigned)

	// Division (requires a zero check; the sandboxer inserts OpChkDiv).
	OpDivU // rd <- rs / rt
	OpRemU // rd <- rs % rt

	// Signed arithmetic: can raise overflow exceptions on MIPS. The C
	// compiler the paper uses never generates these; our verifier rejects
	// them (Section III-B1).
	OpAdd // rd <- rs + rt, traps on overflow
	OpSub // rd <- rs - rt, traps on overflow
	OpDiv // signed divide

	// Floating point: disallowed at download time (Section III-B1).
	OpFAdd
	OpFMul

	// Memory. Effective address is rs + imm.
	OpLd32 // rd <- mem32[rs+imm]
	OpLd16 // rd <- zx(mem16[rs+imm])
	OpLd8  // rd <- zx(mem8[rs+imm])
	OpSt32 // mem32[rs+imm] <- rt
	OpSt16 // mem16[rs+imm] <- rt (low 16)
	OpSt8  // mem8[rs+imm] <- rt (low 8)

	// Indexed memory (rs + rt addressing). VCODE folds the address add
	// into the access when emitting data-streaming loops; the DILP
	// compiler uses these so a fused transfer loop pays only one pointer
	// update per word (DESIGN.md §4 calibration).
	OpLd32X // rd <- mem32[rs+rt]
	OpSt32X // mem32[rs+rt] <- rd
	OpLd8X  // rd <- zx(mem8[rs+rt])
	OpSt8X  // mem8[rs+rt] <- rd

	// Control. Target is an instruction index (resolved from labels).
	OpBeq  // if rs == rt goto Target
	OpBne  // if rs != rt goto Target
	OpBltU // if rs < rt (unsigned) goto Target
	OpBgeU // if rs >= rt (unsigned) goto Target
	OpJmp  // goto Target
	OpJmpR // goto rs (indirect; sandbox checks at runtime)
	OpCall // call kernel entry point Sym (allowlisted by the sandbox)
	OpRet  // return from handler

	// Networking extensions (Section II-B: "we have extended VCODE to
	// include common networking operations").
	OpCksum32 // rd <- rd + rs with end-around carry (Internet checksum step)
	OpBswap   // rd <- byte-reversed rs

	// Pipe streaming pseudo-ops. Only valid inside pipe bodies; the DILP
	// compiler rewrites them into loads/stores/register moves when fusing
	// pipes into a transfer engine. Executing one directly is a fault.
	OpInput32  // rd <- next input word
	OpOutput32 // emit rs as output word

	// Sandbox-inserted instructions (never written by users; the verifier
	// rejects them in downloaded code so handlers cannot forge checks).
	OpSboxMask  // rd <- (rs + imm) with the region base OR'd in (SFI mask)
	OpSboxChk   // fault unless rd lies inside the data region
	OpChkDiv    // fault if rs == 0
	OpChkBudget // decrement budget by imm; fault if exhausted
)

var opNames = [...]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov",
	OpAddU: "addu", OpSubU: "subu", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNor: "nor", OpSll: "sll", OpSrl: "srl", OpSltU: "sltu", OpMulU: "mulu",
	OpAddIU: "addiu", OpAndI: "andi", OpOrI: "ori", OpXorI: "xori",
	OpSllI: "slli", OpSrlI: "srli", OpSltIU: "sltiu",
	OpDivU: "divu", OpRemU: "remu",
	OpAdd: "add", OpSub: "sub", OpDiv: "div",
	OpFAdd: "fadd", OpFMul: "fmul",
	OpLd32: "ld32", OpLd16: "ld16", OpLd8: "ld8",
	OpSt32: "st32", OpSt16: "st16", OpSt8: "st8",
	OpLd32X: "ld32x", OpSt32X: "st32x", OpLd8X: "ld8x", OpSt8X: "st8x",
	OpBeq: "beq", OpBne: "bne", OpBltU: "bltu", OpBgeU: "bgeu",
	OpJmp: "jmp", OpJmpR: "jmpr", OpCall: "call", OpRet: "ret",
	OpCksum32: "cksum32", OpBswap: "bswap",
	OpInput32: "input32", OpOutput32: "output32",
	OpSboxMask: "sbox.mask", OpSboxChk: "sbox.chk",
	OpChkDiv: "chk.div", OpChkBudget: "chk.budget",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsFloat reports whether the op uses floating-point hardware.
func (o Op) IsFloat() bool { return o == OpFAdd || o == OpFMul }

// IsSignedArith reports whether the op can raise an arithmetic-overflow
// exception on the base machine.
func (o Op) IsSignedArith() bool { return o == OpAdd || o == OpSub || o == OpDiv }

// IsLoad reports whether the op reads memory.
func (o Op) IsLoad() bool {
	return o == OpLd32 || o == OpLd16 || o == OpLd8 || o == OpLd32X || o == OpLd8X
}

// IsStore reports whether the op writes memory.
func (o Op) IsStore() bool {
	return o == OpSt32 || o == OpSt16 || o == OpSt8 || o == OpSt32X || o == OpSt8X
}

// IsIndexed reports whether the op uses rs+rt addressing.
func (o Op) IsIndexed() bool {
	return o == OpLd32X || o == OpSt32X || o == OpLd8X || o == OpSt8X
}

// Width reports how many bytes a load or store moves (0 for any other op);
// a power of two, so an address is aligned when addr&(width-1) is 0. It is
// a table because it is inlined into Machine.run's load and store arms,
// where a second switch cost hotpath.VCODEBranchy a fifth.
func (o Op) Width() int { return int(opWidth[o]) }

var opWidth = [256]uint8{
	OpLd32: 4, OpSt32: 4, OpLd32X: 4, OpSt32X: 4,
	OpLd16: 2, OpSt16: 2,
	OpLd8: 1, OpSt8: 1, OpLd8X: 1, OpSt8X: 1,
}

// IsSandboxOp reports whether the op is reserved for sandboxer insertion.
func (o Op) IsSandboxOp() bool {
	return o == OpSboxMask || o == OpSboxChk || o == OpChkDiv || o == OpChkBudget
}

// Insn is one decoded instruction.
type Insn struct {
	Op     Op
	Rd     Reg
	Rs     Reg
	Rt     Reg
	Imm    int32
	Target int    // branch/jump destination (instruction index)
	Sym    string // OpCall entry point name
}

// String renders the instruction in assembler-like form.
func (in Insn) String() string {
	switch in.Op {
	case OpNop, OpRet:
		return in.Op.String()
	case OpMovI:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case OpMov, OpBswap:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Rs)
	case OpAddIU, OpAndI, OpOrI, OpXorI, OpSllI, OpSrlI, OpSltIU:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case OpLd32, OpLd16, OpLd8:
		return fmt.Sprintf("%s r%d, [r%d%+d]", in.Op, in.Rd, in.Rs, in.Imm)
	case OpSt32, OpSt16, OpSt8:
		return fmt.Sprintf("%s [r%d%+d], r%d", in.Op, in.Rs, in.Imm, in.Rt)
	case OpLd32X, OpLd8X:
		return fmt.Sprintf("%s r%d, [r%d+r%d]", in.Op, in.Rd, in.Rs, in.Rt)
	case OpSt32X, OpSt8X:
		return fmt.Sprintf("%s [r%d+r%d], r%d", in.Op, in.Rs, in.Rt, in.Rd)
	case OpBeq, OpBne, OpBltU, OpBgeU:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Rs, in.Rt, in.Target)
	case OpJmp:
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	case OpJmpR:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs)
	case OpCall:
		return fmt.Sprintf("%s %s", in.Op, in.Sym)
	case OpCksum32:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Rs)
	case OpInput32:
		return fmt.Sprintf("%s r%d", in.Op, in.Rd)
	case OpOutput32:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs)
	case OpSboxMask:
		return fmt.Sprintf("%s r%d, r%d%+d", in.Op, in.Rd, in.Rs, in.Imm)
	case OpSboxChk:
		return fmt.Sprintf("%s r%d", in.Op, in.Rd)
	case OpChkDiv:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs)
	case OpChkBudget:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs, in.Rt)
	}
}

// Program is an assembled sequence of instructions plus the register
// allocation metadata the sandbox and DILP compiler need.
type Program struct {
	Name  string
	Insns []Insn

	// Persistent marks registers whose values survive across invocations
	// (pipe accumulators); the remainder of the allocated set is temporary.
	Persistent []Reg
	// NextReg is the first unallocated register (for later renaming).
	NextReg Reg
}

// Len reports the static instruction count.
func (p *Program) Len() int { return len(p.Insns) }

// String disassembles the program.
func (p *Program) String() string {
	s := fmt.Sprintf("; program %s (%d insns)\n", p.Name, len(p.Insns))
	for i, in := range p.Insns {
		s += fmt.Sprintf("%4d: %s\n", i, in)
	}
	return s
}

// Clone returns a deep copy (the sandboxer rewrites programs in place).
func (p *Program) Clone() *Program {
	q := &Program{
		Name:       p.Name,
		Insns:      append([]Insn(nil), p.Insns...),
		Persistent: append([]Reg(nil), p.Persistent...),
		NextReg:    p.NextReg,
	}
	return q
}
