package vcode

import (
	"fmt"
	"math/bits"

	"ashs/internal/mach"
	"ashs/internal/sim"
)

// FaultKind classifies why execution was terminated involuntarily.
type FaultKind int

const (
	FaultNone      FaultKind = iota
	FaultBadAddr             // reference to an illegal or nonresident address
	FaultDivZero             // divide by zero reached execution
	FaultBudget              // instruction/cycle budget exhausted
	FaultBadJump             // wild or unchecked indirect jump
	FaultIllegalOp           // opcode not permitted at runtime
	FaultBadCall             // call to an entry point not allowlisted
	FaultUnaligned           // unaligned word access
	FaultFloat               // floating-point use reached execution
	FaultOverflow            // signed arithmetic overflow
)

var faultNames = map[FaultKind]string{
	FaultBadAddr: "bad address", FaultDivZero: "divide by zero",
	FaultBudget: "budget exhausted", FaultBadJump: "wild jump",
	FaultIllegalOp: "illegal opcode", FaultBadCall: "bad call",
	FaultUnaligned: "unaligned access", FaultFloat: "floating point",
	FaultOverflow: "arithmetic overflow",
}

// Fault describes an involuntary abort. It satisfies error.
type Fault struct {
	Kind FaultKind
	PC   int
	Addr uint32
	Msg  string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	s := fmt.Sprintf("vcode fault at pc=%d: %s", f.PC, faultNames[f.Kind])
	if f.Kind == FaultBadAddr || f.Kind == FaultUnaligned {
		s += fmt.Sprintf(" (addr=0x%x)", f.Addr)
	}
	if f.Msg != "" {
		s += ": " + f.Msg
	}
	return s
}

// Memory is the address space a program executes against. Implementations
// return a *Fault (as error) for illegal or nonresident addresses; the
// machine converts that into an involuntary abort, mirroring how the paper's
// OS aborts an ASH that touches an absent page (Section III-A).
type Memory interface {
	Load32(addr uint32) (uint32, error)
	Load16(addr uint32) (uint16, error)
	Load8(addr uint32) (byte, error)
	Store32(addr uint32, v uint32) error
	Store16(addr uint32, v uint16) error
	Store8(addr uint32, v byte) error
}

// SyscallFn is a kernel entry point callable from handler code via OpCall.
// It receives the machine so it can read argument registers (RArg0..),
// write RRet, charge cycles, and touch memory.
type SyscallFn func(m *Machine) error

// Machine executes a Program with full cost accounting. One Machine may be
// reused across runs; persistent register values survive between Run calls,
// temporaries are undefined.
type Machine struct {
	Prof  *mach.Profile
	Mem   Memory
	Cache *mach.Cache // may be nil: loads then cost LoadHit
	Syms  map[string]SyscallFn

	Regs [NumRegs]uint32

	// Limits. InsnBudget <= 0 means unlimited; CycleLimit <= 0 unlimited.
	// SoftBudget is drained only by OpChkBudget instructions (the
	// software-check strategy of Section III-B3).
	InsnBudget int64
	CycleLimit sim.Time
	SoftBudget int64

	// SboxBase/SboxLimit define the region OpSboxChk enforces.
	SboxBase, SboxLimit uint32

	// JmpTable, when non-nil, translates pre-sandboxed instruction indices
	// used by indirect jumps into post-instrumentation indices
	// (Section III-B2: "if they are to code named by the pre-sandboxed
	// address then they are translated").
	JmpTable []int

	// Accounting (reset by Run).
	Cycles sim.Time
	Insns  int64

	// PCCounts, when non-nil, accumulates per-pc execution counts across
	// runs (indices are post-instrumentation; the DCG loop maps them back
	// through JmpTable). Left nil on hot paths so profiling costs nothing
	// when disabled.
	PCCounts []uint64

	// CheckBudgetOnBranch simulates the "software checks at all backward
	// jump locations" strategy (Section III-B3) when the sandboxer has
	// inserted OpChkBudget instructions; the timer strategy instead uses
	// CycleLimit.
	budgetCounter int64
}

// NewMachine returns a machine over mem using profile p.
func NewMachine(p *mach.Profile, mem Memory) *Machine {
	return &Machine{Prof: p, Mem: mem, Syms: map[string]SyscallFn{}}
}

// Charge adds cycles to the accumulated cost (used by syscall handlers).
func (m *Machine) Charge(c sim.Time) { m.Cycles += c }

// ChargeInsns models n straight-line instructions (n cycles, n counted).
func (m *Machine) ChargeInsns(n int64) {
	m.Insns += n
	m.Cycles += sim.Time(n)
}

func (m *Machine) loadCost(addr uint32) sim.Time {
	if m.Cache != nil {
		return m.Cache.Load(addr)
	}
	return sim.Time(m.Prof.LoadHit)
}

func (m *Machine) storeCost(addr uint32) sim.Time {
	if m.Cache != nil {
		return m.Cache.Store(addr)
	}
	return sim.Time(m.Prof.StoreCycles)
}

func fault(k FaultKind, pc int, addr uint32) *Fault {
	return &Fault{Kind: k, PC: pc, Addr: addr}
}

// Run executes prog from instruction 0 until Ret or a fault. It returns the
// fault (nil on clean return). Cycle and instruction counters are reset at
// entry; persistent register contents are the caller's responsibility.
func (m *Machine) Run(prog *Program) *Fault {
	m.Cycles = 0
	m.Insns = 0
	m.budgetCounter = m.SoftBudget
	code := prog.Insns
	pc := 0
	for {
		if pc < 0 || pc >= len(code) {
			return fault(FaultBadJump, pc, 0)
		}
		in := &code[pc]
		if m.PCCounts != nil && pc < len(m.PCCounts) {
			m.PCCounts[pc]++
		}
		m.Insns++
		m.Cycles += sim.Time(m.Prof.ALUOp) // base issue cost; memory adds below
		if m.InsnBudget > 0 && m.Insns > m.InsnBudget {
			return fault(FaultBudget, pc, 0)
		}
		if m.CycleLimit > 0 && m.Cycles > m.CycleLimit {
			return fault(FaultBudget, pc, 0)
		}
		next := pc + 1
		r := &m.Regs
		switch in.Op {
		case OpNop:
		case OpMovI:
			r[in.Rd] = uint32(in.Imm)
		case OpMov:
			r[in.Rd] = r[in.Rs]
		case OpAddU:
			r[in.Rd] = r[in.Rs] + r[in.Rt]
		case OpSubU:
			r[in.Rd] = r[in.Rs] - r[in.Rt]
		case OpAnd:
			r[in.Rd] = r[in.Rs] & r[in.Rt]
		case OpOr:
			r[in.Rd] = r[in.Rs] | r[in.Rt]
		case OpXor:
			r[in.Rd] = r[in.Rs] ^ r[in.Rt]
		case OpNor:
			r[in.Rd] = ^(r[in.Rs] | r[in.Rt])
		case OpSll:
			r[in.Rd] = r[in.Rs] << (r[in.Rt] & 31)
		case OpSrl:
			r[in.Rd] = r[in.Rs] >> (r[in.Rt] & 31)
		case OpSltU:
			if r[in.Rs] < r[in.Rt] {
				r[in.Rd] = 1
			} else {
				r[in.Rd] = 0
			}
		case OpMulU:
			r[in.Rd] = r[in.Rs] * r[in.Rt]
		case OpAddIU:
			r[in.Rd] = r[in.Rs] + uint32(in.Imm)
		case OpAndI:
			r[in.Rd] = r[in.Rs] & uint32(in.Imm)
		case OpOrI:
			r[in.Rd] = r[in.Rs] | uint32(in.Imm)
		case OpXorI:
			r[in.Rd] = r[in.Rs] ^ uint32(in.Imm)
		case OpSllI:
			r[in.Rd] = r[in.Rs] << (uint32(in.Imm) & 31)
		case OpSrlI:
			r[in.Rd] = r[in.Rs] >> (uint32(in.Imm) & 31)
		case OpSltIU:
			if r[in.Rs] < uint32(in.Imm) {
				r[in.Rd] = 1
			} else {
				r[in.Rd] = 0
			}
		case OpDivU:
			if r[in.Rt] == 0 {
				// An unchecked divide reaching execution is a fault: the
				// sandboxer should have inserted OpChkDiv.
				return fault(FaultDivZero, pc, 0)
			}
			r[in.Rd] = r[in.Rs] / r[in.Rt]
			m.Cycles += 34 // MIPS divide latency
		case OpRemU:
			if r[in.Rt] == 0 {
				return fault(FaultDivZero, pc, 0)
			}
			r[in.Rd] = r[in.Rs] % r[in.Rt]
			m.Cycles += 34
		case OpAdd, OpSub, OpDiv:
			// Signed arithmetic can trap; the verifier rejects it at
			// download time, so reaching one at runtime means unverified
			// code is executing.
			return fault(FaultOverflow, pc, 0)
		case OpFAdd, OpFMul:
			return fault(FaultFloat, pc, 0)

		case OpLd32, OpLd16, OpLd8, OpLd32X, OpLd8X:
			addr := r[in.Rs] + uint32(in.Imm)
			if in.Op.IsIndexed() {
				addr = r[in.Rs] + r[in.Rt]
			}
			// Base issue already charged; the cache cost includes issue.
			m.Cycles += m.loadCost(addr) - sim.Time(m.Prof.ALUOp)
			var v uint32
			var err error
			switch in.Op {
			case OpLd32, OpLd32X:
				if addr&3 != 0 {
					return fault(FaultUnaligned, pc, addr)
				}
				v, err = m.Mem.Load32(addr)
			case OpLd16:
				if addr&1 != 0 {
					return fault(FaultUnaligned, pc, addr)
				}
				var v16 uint16
				v16, err = m.Mem.Load16(addr)
				v = uint32(v16)
			default:
				var v8 byte
				v8, err = m.Mem.Load8(addr)
				v = uint32(v8)
			}
			if err != nil {
				return fault(FaultBadAddr, pc, addr)
			}
			r[in.Rd] = v

		case OpSt32, OpSt16, OpSt8, OpSt32X, OpSt8X:
			addr := r[in.Rs] + uint32(in.Imm)
			val := r[in.Rt]
			if in.Op.IsIndexed() {
				addr = r[in.Rs] + r[in.Rt]
				val = r[in.Rd]
			}
			m.Cycles += m.storeCost(addr)
			// Base issue already charged 1; store cost covers the bus.
			m.Cycles -= sim.Time(m.Prof.ALUOp)
			var err error
			switch in.Op {
			case OpSt32, OpSt32X:
				if addr&3 != 0 {
					return fault(FaultUnaligned, pc, addr)
				}
				err = m.Mem.Store32(addr, val)
			case OpSt16:
				if addr&1 != 0 {
					return fault(FaultUnaligned, pc, addr)
				}
				err = m.Mem.Store16(addr, uint16(val))
			default:
				err = m.Mem.Store8(addr, byte(val))
			}
			if err != nil {
				return fault(FaultBadAddr, pc, addr)
			}

		case OpBeq:
			if r[in.Rs] == r[in.Rt] {
				next = in.Target
			}
		case OpBne:
			if r[in.Rs] != r[in.Rt] {
				next = in.Target
			}
		case OpBltU:
			if r[in.Rs] < r[in.Rt] {
				next = in.Target
			}
		case OpBgeU:
			if r[in.Rs] >= r[in.Rt] {
				next = in.Target
			}
		case OpJmp:
			next = in.Target
		case OpJmpR:
			// Unchecked indirect jumps reaching execution are wild: the
			// sandboxer translates them (Section III-B2). We model the
			// translated form as a checked jump through a register holding
			// a pre-sandboxed instruction index.
			t := int(r[in.Rs])
			if m.JmpTable != nil {
				if t < 0 || t >= len(m.JmpTable) {
					return fault(FaultBadJump, pc, r[in.Rs])
				}
				t = m.JmpTable[t]
			}
			if t < 0 || t >= len(code) {
				return fault(FaultBadJump, pc, r[in.Rs])
			}
			next = t
			m.Cycles += 2 // translation table lookup
		case OpCall:
			fn, ok := m.Syms[in.Sym]
			if !ok {
				return fault(FaultBadCall, pc, 0)
			}
			m.Cycles += 2 // call linkage
			if err := fn(m); err != nil {
				if f, ok := err.(*Fault); ok {
					f.PC = pc
					return f
				}
				return &Fault{Kind: FaultBadCall, PC: pc, Msg: err.Error()}
			}
		case OpRet:
			return nil

		case OpCksum32:
			s, c := bits.Add32(r[in.Rd], r[in.Rs], 0)
			r[in.Rd] = s + c // end-around carry
			m.Cycles += sim.Time(m.Prof.CksumOp - m.Prof.ALUOp)
		case OpBswap:
			v := r[in.Rs]
			r[in.Rd] = v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
			m.Cycles += sim.Time(m.Prof.BswapOp - m.Prof.ALUOp)

		case OpInput32, OpOutput32:
			// Pipe pseudo-ops are only meaningful after DILP compilation.
			return fault(FaultIllegalOp, pc, 0)

		case OpSboxMask:
			// SFI address staging: compute the effective address into the
			// dedicated sandbox register; OpSboxChk then validates it.
			r[in.Rd] = r[in.Rs] + uint32(in.Imm)
		case OpSboxChk:
			a := r[in.Rd]
			if a < m.SboxBase || a >= m.SboxLimit {
				return fault(FaultBadAddr, pc, a)
			}
		case OpChkDiv:
			if r[in.Rs] == 0 {
				return fault(FaultDivZero, pc, 0)
			}
		case OpChkBudget:
			m.budgetCounter -= int64(in.Imm)
			if m.SoftBudget > 0 && m.budgetCounter <= 0 {
				return fault(FaultBudget, pc, 0)
			}

		default:
			return fault(FaultIllegalOp, pc, 0)
		}
		pc = next
	}
}

// FlatMem is a contiguous simulated memory: addresses [Base, Base+len(Data))
// are valid and every access outside them is a FaultBadAddr. The valid
// range is Data, nothing else — the accessors consult no other size.
//
// It backs every aegis host as well as standalone machines. A host's Data
// is the allocated prefix of a leased arena: only the owning aegis.Kernel
// re-slices it (forward in AllocPhys, over the same backing array; to nil
// in Close, which zeroes the prefix before the arena is reused). Everyone
// else treats Base and Data as read-only fields.
type FlatMem struct {
	Base uint32
	Data []byte
}

// NewFlatMem allocates n zeroed bytes of simulated memory at base, all of
// them valid, owned by the caller.
func NewFlatMem(base uint32, n int) *FlatMem {
	return &FlatMem{Base: base, Data: make([]byte, n)}
}

func (f *FlatMem) idx(addr uint32, n int) (int, error) {
	if addr < f.Base || uint64(addr)+uint64(n) > uint64(f.Base)+uint64(len(f.Data)) {
		return 0, &Fault{Kind: FaultBadAddr, Addr: addr}
	}
	return int(addr - f.Base), nil
}

// Load32 implements Memory (big-endian, network byte order).
func (f *FlatMem) Load32(addr uint32) (uint32, error) {
	i, err := f.idx(addr, 4)
	if err != nil {
		return 0, err
	}
	d := f.Data[i : i+4]
	return uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3]), nil
}

// Load16 implements Memory.
func (f *FlatMem) Load16(addr uint32) (uint16, error) {
	i, err := f.idx(addr, 2)
	if err != nil {
		return 0, err
	}
	return uint16(f.Data[i])<<8 | uint16(f.Data[i+1]), nil
}

// Load8 implements Memory.
func (f *FlatMem) Load8(addr uint32) (byte, error) {
	i, err := f.idx(addr, 1)
	if err != nil {
		return 0, err
	}
	return f.Data[i], nil
}

// Store32 implements Memory.
func (f *FlatMem) Store32(addr uint32, v uint32) error {
	i, err := f.idx(addr, 4)
	if err != nil {
		return err
	}
	f.Data[i] = byte(v >> 24)
	f.Data[i+1] = byte(v >> 16)
	f.Data[i+2] = byte(v >> 8)
	f.Data[i+3] = byte(v)
	return nil
}

// Store16 implements Memory.
func (f *FlatMem) Store16(addr uint32, v uint16) error {
	i, err := f.idx(addr, 2)
	if err != nil {
		return err
	}
	f.Data[i] = byte(v >> 8)
	f.Data[i+1] = byte(v)
	return nil
}

// Store8 implements Memory.
func (f *FlatMem) Store8(addr uint32, v byte) error {
	i, err := f.idx(addr, 1)
	if err != nil {
		return err
	}
	f.Data[i] = v
	return nil
}
