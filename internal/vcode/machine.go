package vcode

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Memory is the address space a program executes against. A memory lends
// bytes: Load and Store check all of [addr, addr+n) and return those n bytes
// themselves, in address order — a window onto the memory, not a copy, for
// the one access or transfer it was asked for. Load lends for reading,
// Store for writing: that is where a Journal takes its pre-image. n = 0
// lends an empty slice and never faults, whatever addr is.
//
// When any byte of the range is illegal or nonresident an implementation
// lends nothing and returns a *Fault (as error); the machine converts that
// into an involuntary abort, mirroring how the paper's OS aborts an ASH that
// touches an absent page (Section III-A). Alignment is the machine's
// business, not the memory's.
type Memory interface {
	Load(addr uint32, n int) ([]byte, error)
	Store(addr uint32, n int) ([]byte, error)
}

// Load32 reads the big-endian word at addr: typed access for Go code, which
// like the machine decodes what a memory lends. It tests no alignment.
func Load32(mem Memory, addr uint32) (uint32, error) {
	b, err := mem.Load(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Store32 writes v at addr as a big-endian word.
func Store32(mem Memory, addr uint32, v uint32) error {
	b, err := mem.Store(addr, 4)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(b, v)
	return nil
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

	// Accounting (reset by Run). Streamed is the part of Insns that the
	// streaming-loop executor (stream.go) ran instead of the interpreter
	// loop: zero for a loop of a shape it was expected to match means the
	// matcher and whatever emitted the loop have drifted apart.
	Cycles   sim.Time
	Insns    int64
	Streamed int64

	// PCCounts, when non-nil, accumulates per-pc execution counts across
	// runs (indices are post-instrumentation; the DCG loop maps them back
	// through JmpTable). Left nil on hot paths so profiling costs nothing
	// when disabled.
	PCCounts []uint64
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

func fault(k FaultKind, pc int, addr uint32) *Fault {
	return &Fault{Kind: k, PC: pc, Addr: addr}
}

// Run executes prog from instruction 0 until Ret or a fault. It returns the
// fault (nil on clean return). Cycle and instruction counters are reset at
// entry; persistent register contents are the caller's responsibility.
func (m *Machine) Run(prog *Program) *Fault {
	// "<= 0 means unlimited" becomes a limit no run reaches, so the loop
	// tests both limits unconditionally.
	insnLimit, cycleLimit := int64(math.MaxInt64), sim.Time(math.MaxInt64)
	if m.InsnBudget > 0 {
		insnLimit = m.InsnBudget
	}
	if m.CycleLimit > 0 {
		cycleLimit = m.CycleLimit
	}
	m.Streamed = 0
	insnsLeft, cyclesLeft, f := m.run(prog, insnLimit, cycleLimit)
	m.Insns, m.Cycles = insnLimit-insnsLeft, cycleLimit-cyclesLeft
	return f
}

// run is the interpreter loop. Its two counters run down from the limits
// — what it returns is what is left of each — so the per-instruction
// budget test is the sign of a decrement and the limits themselves are not
// live in the loop; that is what lets the compiler keep both counters in
// registers. Around OpCall they are converted to Cycles and Insns and
// back, because a syscall reads and charges the machine. Per-op costs,
// PCCounts, Cache and Mem are read once, so a syscall that replaced one
// mid-run would not be seen. Every load and store asks mem for the bytes of
// its own width and decodes them here, big-endian.
func (m *Machine) run(prog *Program, insnLimit int64, cycleLimit sim.Time) (insnsLeft int64, cyclesLeft sim.Time, _ *Fault) {
	insnsLeft, cyclesLeft = insnLimit, cycleLimit
	alu := sim.Time(m.Prof.ALUOp)
	loadHit, storeCycles := sim.Time(m.Prof.LoadHit), sim.Time(m.Prof.StoreCycles)
	cksumExtra := sim.Time(m.Prof.CksumOp - m.Prof.ALUOp)
	bswapExtra := sim.Time(m.Prof.BswapOp - m.Prof.ALUOp)
	softBudget := m.SoftBudget
	softLeft := softBudget
	counts := m.PCCounts
	cache := m.Cache
	mem := m.Mem
	// The one place the loop knows a concrete Memory: over a *FlatMem the
	// same request is made without the interface call (lend, in line), which
	// otherwise spills the loop's registers once per load and store:
	// hotpath.VCODEBranchy reads 100-104 ns/op through the interface, 79-83
	// with this.
	flat, _ := mem.(*FlatMem)
	code := prog.Insns
	r := &m.Regs
	pc := 0
	for {
		if pc < 0 || pc >= len(code) {
			return insnsLeft, cyclesLeft, fault(FaultBadJump, pc, 0)
		}
		in := &code[pc]
		if pc < len(counts) {
			counts[pc]++
		}
		insnsLeft--
		cyclesLeft -= alu // base issue cost; memory adds below
		if insnsLeft < 0 || cyclesLeft < 0 {
			return insnsLeft, cyclesLeft, fault(FaultBudget, pc, 0)
		}
		next := pc + 1
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
				return insnsLeft, cyclesLeft, fault(FaultDivZero, pc, 0)
			}
			r[in.Rd] = r[in.Rs] / r[in.Rt]
			cyclesLeft -= 34 // MIPS divide latency
		case OpRemU:
			if r[in.Rt] == 0 {
				return insnsLeft, cyclesLeft, fault(FaultDivZero, pc, 0)
			}
			r[in.Rd] = r[in.Rs] % r[in.Rt]
			cyclesLeft -= 34
		case OpAdd, OpSub, OpDiv:
			// Signed arithmetic can trap; the verifier rejects it at
			// download time, so reaching one at runtime means unverified
			// code is executing.
			return insnsLeft, cyclesLeft, fault(FaultOverflow, pc, 0)
		case OpFAdd, OpFMul:
			return insnsLeft, cyclesLeft, fault(FaultFloat, pc, 0)

		case OpLd32, OpLd16, OpLd8, OpLd32X, OpLd8X:
			addr := r[in.Rs] + uint32(in.Imm)
			if in.Op.IsIndexed() {
				addr = r[in.Rs] + r[in.Rt]
			}
			// Base issue already charged; the cache cost includes issue.
			if cache != nil {
				cyclesLeft -= cache.Load(addr) - alu
			} else {
				cyclesLeft -= loadHit - alu
			}
			width := in.Op.Width()
			if addr&uint32(width-1) != 0 {
				return insnsLeft, cyclesLeft, fault(FaultUnaligned, pc, addr)
			}
			var b []byte
			var err error
			if flat != nil {
				b, err = flat.lend(addr, width)
			} else {
				b, err = mem.Load(addr, width)
			}
			if err != nil {
				return insnsLeft, cyclesLeft, fault(FaultBadAddr, pc, addr)
			}
			switch width {
			case 4:
				r[in.Rd] = binary.BigEndian.Uint32(b)
			case 2:
				r[in.Rd] = uint32(binary.BigEndian.Uint16(b))
			default:
				r[in.Rd] = uint32(b[0])
			}

		case OpSt32, OpSt16, OpSt8, OpSt32X, OpSt8X:
			addr := r[in.Rs] + uint32(in.Imm)
			val := r[in.Rt]
			if in.Op.IsIndexed() {
				addr = r[in.Rs] + r[in.Rt]
				val = r[in.Rd]
			}
			// Base issue already charged 1; store cost covers the bus.
			if cache != nil {
				cyclesLeft -= cache.Store(addr) - alu
			} else {
				cyclesLeft -= storeCycles - alu
			}
			width := in.Op.Width()
			if addr&uint32(width-1) != 0 {
				return insnsLeft, cyclesLeft, fault(FaultUnaligned, pc, addr)
			}
			var b []byte
			var err error
			if flat != nil {
				b, err = flat.lend(addr, width)
			} else {
				b, err = mem.Store(addr, width)
			}
			if err != nil {
				return insnsLeft, cyclesLeft, fault(FaultBadAddr, pc, addr)
			}
			switch width {
			case 4:
				binary.BigEndian.PutUint32(b, val)
			case 2:
				binary.BigEndian.PutUint16(b, uint16(val))
			default:
				b[0] = byte(val)
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
				// A backward branch onto a ld32x may close a streaming loop:
				// stream runs as many whole iterations of it as cannot
				// differ from running them here (possibly none), and the
				// branch is decided again.
				if 0 <= next && next < pc-1 && code[next].Op == OpLd32X {
					insnsLeft, cyclesLeft = m.stream(code, pc, mem, cache, counts, insnsLeft, cyclesLeft)
					if r[in.Rs] >= r[in.Rt] {
						next = pc + 1
					}
				}
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
					return insnsLeft, cyclesLeft, fault(FaultBadJump, pc, r[in.Rs])
				}
				t = m.JmpTable[t]
			}
			if t < 0 || t >= len(code) {
				return insnsLeft, cyclesLeft, fault(FaultBadJump, pc, r[in.Rs])
			}
			next = t
			cyclesLeft -= 2 // translation table lookup
		case OpCall:
			fn, ok := m.Syms[in.Sym]
			if !ok {
				return insnsLeft, cyclesLeft, fault(FaultBadCall, pc, 0)
			}
			cyclesLeft -= 2 // call linkage
			m.Insns, m.Cycles = insnLimit-insnsLeft, cycleLimit-cyclesLeft
			err := fn(m)
			insnsLeft, cyclesLeft = insnLimit-m.Insns, cycleLimit-m.Cycles
			if err != nil {
				if f, ok := err.(*Fault); ok {
					f.PC = pc
					return insnsLeft, cyclesLeft, f
				}
				return insnsLeft, cyclesLeft, &Fault{Kind: FaultBadCall, PC: pc, Msg: err.Error()}
			}
		case OpRet:
			return insnsLeft, cyclesLeft, nil

		case OpCksum32:
			s, c := bits.Add32(r[in.Rd], r[in.Rs], 0)
			r[in.Rd] = s + c // end-around carry
			cyclesLeft -= cksumExtra
		case OpBswap:
			v := r[in.Rs]
			r[in.Rd] = v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
			cyclesLeft -= bswapExtra

		case OpInput32, OpOutput32:
			// Pipe pseudo-ops are only meaningful after DILP compilation.
			return insnsLeft, cyclesLeft, fault(FaultIllegalOp, pc, 0)

		case OpSboxMask:
			// SFI address staging: compute the effective address into the
			// dedicated sandbox register; OpSboxChk then validates it.
			r[in.Rd] = r[in.Rs] + uint32(in.Imm)
		case OpSboxChk:
			a := r[in.Rd]
			if a < m.SboxBase || a >= m.SboxLimit {
				return insnsLeft, cyclesLeft, fault(FaultBadAddr, pc, a)
			}
		case OpChkDiv:
			if r[in.Rs] == 0 {
				return insnsLeft, cyclesLeft, fault(FaultDivZero, pc, 0)
			}
		case OpChkBudget:
			// The software-check strategy of Section III-B3: the sandboxer
			// put one of these at every backward jump.
			softLeft -= int64(in.Imm)
			if softBudget > 0 && softLeft <= 0 {
				return insnsLeft, cyclesLeft, fault(FaultBudget, pc, 0)
			}

		default:
			return insnsLeft, cyclesLeft, fault(FaultIllegalOp, pc, 0)
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

// lend is Load and Store: the n bytes at addr when all of them lie inside
// Data and below the top of the address space (a range is contiguous; the
// machine's address arithmetic wraps).
func (f *FlatMem) lend(addr uint32, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	end := uint64(addr) + uint64(n)
	if n < 0 || addr < f.Base || end > uint64(f.Base)+uint64(len(f.Data)) || end > 1<<32 {
		return nil, &Fault{Kind: FaultBadAddr, Addr: addr}
	}
	i := int(addr - f.Base)
	return f.Data[i : i+n : i+n], nil
}

// Load implements Memory.
func (f *FlatMem) Load(addr uint32, n int) ([]byte, error) { return f.lend(addr, n) }

// Store implements Memory.
func (f *FlatMem) Store(addr uint32, n int) ([]byte, error) { return f.lend(addr, n) }
