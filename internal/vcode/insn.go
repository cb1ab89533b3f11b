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

import (
	"fmt"
	"math/bits"
)

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
	// update per word (DESIGN.md §7).
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

	// NumOps is one past the last opcode: every op below it has a row in
	// opTable, and the verifier refuses any op at or above it.
	NumOps
)

// Class is a set of facts about an op that code outside the interpreter
// branches on: the verifier, the instrumenters, the CFG builder and the
// DILP compiler all read them from opTable through Op.Is.
type Class uint16

const (
	Load      Class = 1 << iota // reads memory
	Store                       // writes memory
	Indexed                     // addresses memory as rs+rt
	Branch                      // carries a static Target (beq, bne, bltu, bgeu, jmp)
	Cond                        // falls through when its condition does not hold
	EndsBlock                   // ends a basic block
	Float                       // floating point: refused at download (§III-B1)
	Signed                      // trapping signed arithmetic: refused at download (§III-B1)
	Reserved                    // inserted by the sandboxer only: refused in downloaded code
	PipeOp                      // pipe pseudo-op: valid only inside a pipe body
)

// format is an operand format: the fields an op names and how Insn.String
// prints them. The zero format is the three-register form, which is also
// what an op without a row prints.
type format uint8

const (
	fmtRRR    format = iota // rd, rs, rt
	fmtNone                 // no operands
	fmtRdImm                // rd, imm
	fmtRdRs                 // rd, rs
	fmtRdRsI                // rd, rs, imm
	fmtLoad                 // rd, [rs+imm]
	fmtStore                // [rs+imm], rt
	fmtLoadX                // rd, [rs+rt]
	fmtStoreX               // [rs+rt], rd
	fmtBranch               // rs, rt, @target
	fmtJump                 // @target
	fmtRs                   // rs
	fmtRd                   // rd
	fmtCall                 // sym
	fmtMask                 // rd, rs+imm
	fmtImm                  // imm
)

// formatFields is the register fields each format names.
var formatFields = [fmtImm + 1]operands{
	fmtRRR:    fRd | fRs | fRt,
	fmtRdImm:  fRd,
	fmtRdRs:   fRd | fRs,
	fmtRdRsI:  fRd | fRs,
	fmtLoad:   fRd | fRs,
	fmtStore:  fRs | fRt,
	fmtLoadX:  fRd | fRs | fRt,
	fmtStoreX: fRd | fRs | fRt,
	fmtBranch: fRs | fRt,
	fmtRs:     fRs,
	fmtRd:     fRd,
	fmtMask:   fRd | fRs,
}

// operands is a set of the registers an op reads or writes: its own
// fields, or the calling-convention registers a call names implicitly.
type operands uint8

const (
	fRd   operands = 1 << iota // rd
	fRs                        // rs
	fRt                        // rt
	fRet                       // RRet
	fArgs                      // RArg0..RArg3
)

// opInfo is one row of opTable.
type opInfo struct {
	name       string
	format     format
	class      Class
	width      uint8 // bytes a load or store moves
	defs, uses operands
}

// opTable states, once, every fact about an op that is not what it
// computes (that is Machine.run's switch). It is indexed by Op, so Width
// and Is are one array load.
var opTable = [256]opInfo{
	// op: {name, format, class, width, defs, uses}
	OpNop:  {"nop", fmtNone, 0, 0, 0, 0},
	OpMovI: {"movi", fmtRdImm, 0, 0, fRd, 0},
	OpMov:  {"mov", fmtRdRs, 0, 0, fRd, fRs},

	OpAddU: {"addu", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpSubU: {"subu", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpAnd:  {"and", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpOr:   {"or", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpXor:  {"xor", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpNor:  {"nor", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpSll:  {"sll", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpSrl:  {"srl", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpSltU: {"sltu", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpMulU: {"mulu", fmtRRR, 0, 0, fRd, fRs | fRt},

	OpAddIU: {"addiu", fmtRdRsI, 0, 0, fRd, fRs},
	OpAndI:  {"andi", fmtRdRsI, 0, 0, fRd, fRs},
	OpOrI:   {"ori", fmtRdRsI, 0, 0, fRd, fRs},
	OpXorI:  {"xori", fmtRdRsI, 0, 0, fRd, fRs},
	OpSllI:  {"slli", fmtRdRsI, 0, 0, fRd, fRs},
	OpSrlI:  {"srli", fmtRdRsI, 0, 0, fRd, fRs},
	OpSltIU: {"sltiu", fmtRdRsI, 0, 0, fRd, fRs},

	OpDivU: {"divu", fmtRRR, 0, 0, fRd, fRs | fRt},
	OpRemU: {"remu", fmtRRR, 0, 0, fRd, fRs | fRt},

	OpAdd:  {"add", fmtRRR, Signed, 0, fRd, fRs | fRt},
	OpSub:  {"sub", fmtRRR, Signed, 0, fRd, fRs | fRt},
	OpDiv:  {"div", fmtRRR, Signed, 0, fRd, fRs | fRt},
	OpFAdd: {"fadd", fmtRRR, Float, 0, fRd, fRs | fRt},
	OpFMul: {"fmul", fmtRRR, Float, 0, fRd, fRs | fRt},

	OpLd32:  {"ld32", fmtLoad, Load, 4, fRd, fRs},
	OpLd16:  {"ld16", fmtLoad, Load, 2, fRd, fRs},
	OpLd8:   {"ld8", fmtLoad, Load, 1, fRd, fRs},
	OpSt32:  {"st32", fmtStore, Store, 4, 0, fRs | fRt},
	OpSt16:  {"st16", fmtStore, Store, 2, 0, fRs | fRt},
	OpSt8:   {"st8", fmtStore, Store, 1, 0, fRs | fRt},
	OpLd32X: {"ld32x", fmtLoadX, Load | Indexed, 4, fRd, fRs | fRt},
	OpSt32X: {"st32x", fmtStoreX, Store | Indexed, 4, 0, fRs | fRt | fRd},
	OpLd8X:  {"ld8x", fmtLoadX, Load | Indexed, 1, fRd, fRs | fRt},
	OpSt8X:  {"st8x", fmtStoreX, Store | Indexed, 1, 0, fRs | fRt | fRd},

	OpBeq:  {"beq", fmtBranch, Branch | Cond | EndsBlock, 0, 0, fRs | fRt},
	OpBne:  {"bne", fmtBranch, Branch | Cond | EndsBlock, 0, 0, fRs | fRt},
	OpBltU: {"bltu", fmtBranch, Branch | Cond | EndsBlock, 0, 0, fRs | fRt},
	OpBgeU: {"bgeu", fmtBranch, Branch | Cond | EndsBlock, 0, 0, fRs | fRt},
	OpJmp:  {"jmp", fmtJump, Branch | EndsBlock, 0, 0, 0},
	OpJmpR: {"jmpr", fmtRs, EndsBlock, 0, 0, fRs},
	OpCall: {"call", fmtCall, 0, 0, fRet, fArgs},
	OpRet:  {"ret", fmtNone, EndsBlock, 0, 0, 0},

	OpCksum32: {"cksum32", fmtRdRs, 0, 0, fRd, fRd | fRs},
	OpBswap:   {"bswap", fmtRdRs, 0, 0, fRd, fRs},

	OpInput32:  {"input32", fmtRd, PipeOp, 0, fRd, 0},
	OpOutput32: {"output32", fmtRs, PipeOp, 0, 0, fRs},

	OpSboxMask:  {"sbox.mask", fmtMask, Reserved, 0, fRd, fRs},
	OpSboxChk:   {"sbox.chk", fmtRd, Reserved, 0, 0, fRd},
	OpChkDiv:    {"chk.div", fmtRs, Reserved, 0, 0, fRs},
	OpChkBudget: {"chk.budget", fmtImm, Reserved, 0, 0, 0},
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if name := opTable[o].name; name != "" {
		return name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Is reports whether the op is in any of the classes c names.
func (o Op) Is(c Class) bool { return opTable[o].class&c != 0 }

// Width reports how many bytes a load or store moves (0 for any other op);
// a power of two, so an address is aligned when addr&(width-1) is 0. It is
// inlined into Machine.run's load and store arms, where a switch cost
// hotpath.VCODEBranchy a fifth.
func (o Op) Width() int { return int(opTable[o].width) }

// RegSet is a set of machine registers as a bitmask (NumRegs <= 32).
type RegSet uint32

// Has reports membership.
func (s RegSet) Has(r Reg) bool { return s&(1<<uint(r)) != 0 }

// Add returns s with r added.
func (s RegSet) Add(r Reg) RegSet { return s | 1<<uint(r) }

// Remove returns s without r.
func (s RegSet) Remove(r Reg) RegSet { return s &^ (1 << uint(r)) }

// Each calls f on every register of s, lowest first.
func (s RegSet) Each(f func(Reg)) {
	for ; s != 0; s &= s - 1 {
		f(Reg(bits.TrailingZeros32(uint32(s))))
	}
}

// Insn is one decoded instruction: 16 bytes, so indexing code is a shift.
// It holds no pointer (an entry point is an interned Sym, not its name), so
// code is plain data to the collector.
type Insn struct {
	Op     Op
	Rd     Reg
	Rs     Reg
	Rt     Reg
	Imm    int32
	Target int32 // branch/jump destination (instruction index)
	Sym    Sym   // OpCall entry point
}

// Defs returns the registers the instruction writes. A call is modeled by
// the calling convention (it defines RRet); clients that must be sound
// against arbitrary syscall behaviour (the SFI optimizer) additionally
// invalidate everything at calls.
func (in Insn) Defs() RegSet { return in.regs(opTable[in.Op].defs) }

// Uses returns the registers the instruction reads.
func (in Insn) Uses() RegSet { return in.regs(opTable[in.Op].uses) }

// RegsInFile reports whether every register field the op's operand format
// names is below NumRegs. Defs and Uses cannot tell: a RegSet has no bit
// for a register past the file, so such a register drops out of them.
func (in Insn) RegsInFile() bool {
	f := formatFields[opTable[in.Op].format]
	return !(f&fRd != 0 && in.Rd >= NumRegs || f&fRs != 0 && in.Rs >= NumRegs || f&fRt != 0 && in.Rt >= NumRegs)
}

func (in Insn) regs(f operands) RegSet {
	var s RegSet
	if f&fRd != 0 {
		s = s.Add(in.Rd)
	}
	if f&fRs != 0 {
		s = s.Add(in.Rs)
	}
	if f&fRt != 0 {
		s = s.Add(in.Rt)
	}
	if f&fRet != 0 {
		s = s.Add(RRet)
	}
	if f&fArgs != 0 {
		s = s.Add(RArg0).Add(RArg1).Add(RArg2).Add(RArg3)
	}
	return s
}

// String renders the instruction in assembler-like form.
func (in Insn) String() string {
	switch opTable[in.Op].format {
	case fmtNone:
		return in.Op.String()
	case fmtRdImm:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case fmtRdRs:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Rs)
	case fmtRdRsI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case fmtLoad:
		return fmt.Sprintf("%s r%d, [r%d%+d]", in.Op, in.Rd, in.Rs, in.Imm)
	case fmtStore:
		return fmt.Sprintf("%s [r%d%+d], r%d", in.Op, in.Rs, in.Imm, in.Rt)
	case fmtLoadX:
		return fmt.Sprintf("%s r%d, [r%d+r%d]", in.Op, in.Rd, in.Rs, in.Rt)
	case fmtStoreX:
		return fmt.Sprintf("%s [r%d+r%d], r%d", in.Op, in.Rs, in.Rt, in.Rd)
	case fmtBranch:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Rs, in.Rt, in.Target)
	case fmtJump:
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	case fmtRs:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs)
	case fmtRd:
		return fmt.Sprintf("%s r%d", in.Op, in.Rd)
	case fmtCall:
		return fmt.Sprintf("%s %s", in.Op, in.Sym)
	case fmtMask:
		return fmt.Sprintf("%s r%d, r%d%+d", in.Op, in.Rd, in.Rs, in.Imm)
	case fmtImm:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	default: // fmtRRR
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

// Clone returns a deep copy, for a holder that must not see later writes
// to the caller's program: the sandbox keeps one per verdict, which a build
// shares as its Orig and an unsafe download runs.
func (p *Program) Clone() *Program {
	return &Program{
		Name:       p.Name,
		Insns:      append([]Insn(nil), p.Insns...),
		Persistent: append([]Reg(nil), p.Persistent...),
		NextReg:    p.NextReg,
	}
}
