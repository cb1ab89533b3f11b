package vcode

import (
	"math/bits"

	"ashs/internal/sim"
)

// RunReference is Machine.Run as it stood before the register-resident
// loop: every counter and limit read and written through the machine on
// every instruction, memory reached through the Memory interface only. It
// is kept verbatim — but for its name, the soft-budget counter (a machine
// field then, a local now) and refLoad/refStore, which stand where the
// typed Memory accessors were — as the oracle of the differential tests in
// run_diff_test.go.
func RunReference(m *Machine, prog *Program) *Fault {
	m.Cycles = 0
	m.Insns = 0
	budgetCounter := m.SoftBudget
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
			if in.Op.Is(Indexed) {
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
				v, err = refLoad(m.Mem, addr, 4)
			case OpLd16:
				if addr&1 != 0 {
					return fault(FaultUnaligned, pc, addr)
				}
				v, err = refLoad(m.Mem, addr, 2)
			default:
				v, err = refLoad(m.Mem, addr, 1)
			}
			if err != nil {
				return fault(FaultBadAddr, pc, addr)
			}
			r[in.Rd] = v

		case OpSt32, OpSt16, OpSt8, OpSt32X, OpSt8X:
			addr := r[in.Rs] + uint32(in.Imm)
			val := r[in.Rt]
			if in.Op.Is(Indexed) {
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
				err = refStore(m.Mem, addr, 4, val)
			case OpSt16:
				if addr&1 != 0 {
					return fault(FaultUnaligned, pc, addr)
				}
				err = refStore(m.Mem, addr, 2, val)
			default:
				err = refStore(m.Mem, addr, 1, val)
			}
			if err != nil {
				return fault(FaultBadAddr, pc, addr)
			}

		case OpBeq:
			if r[in.Rs] == r[in.Rt] {
				next = int(in.Target)
			}
		case OpBne:
			if r[in.Rs] != r[in.Rt] {
				next = int(in.Target)
			}
		case OpBltU:
			if r[in.Rs] < r[in.Rt] {
				next = int(in.Target)
			}
		case OpBgeU:
			if r[in.Rs] >= r[in.Rt] {
				next = int(in.Target)
			}
		case OpJmp:
			next = int(in.Target)
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
			var fn SyscallFn
			if int(in.Sym) < len(m.Syms) {
				fn = m.Syms[in.Sym]
			}
			if fn == nil {
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
			budgetCounter -= int64(in.Imm)
			if m.SoftBudget > 0 && budgetCounter <= 0 {
				return fault(FaultBudget, pc, 0)
			}

		default:
			return fault(FaultIllegalOp, pc, 0)
		}
		pc = next
	}
}

// refLoad and refStore are the reference's typed accesses: one request of
// the access's own width, the value put together a byte at a time.
func refLoad(mem Memory, addr uint32, n int) (uint32, error) {
	b, err := mem.Load(addr, n)
	var v uint32
	for _, x := range b {
		v = v<<8 | uint32(x)
	}
	return v, err
}

func refStore(mem Memory, addr uint32, n int, v uint32) error {
	b, err := mem.Store(addr, n)
	for i := range b {
		b[i] = byte(v >> (8 * (len(b) - 1 - i)))
	}
	return err
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
