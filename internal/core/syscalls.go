package core

import (
	"fmt"

	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// The kernel entry points an ASH may call (Section III-B2: indirect jumps
// "to operating system calls explicitly allowed by the system (such as the
// network send system call)" proceed; everything else aborts). These are
// the trusted, aggregated-check services that keep per-reference
// sandboxing off the bulk-data path: each asks the handler's own memory
// (m.Mem, the journal over the owner's address space) once for a whole
// range — Load for what it reads, Store for what it writes — which is the
// protection check, the residency check and the rollback pre-image in one.
// A zero-length range is lent anywhere.
//
// A System builds the table once and every handler it installs shares it:
// an entry point that needs the message being handled reads s.curMC, the
// running invocation's.

// syscalls builds the System's entry-point table, indexed by vcode.Sym.
func (s *System) syscalls() []vcode.SyscallFn {
	return vcode.SymTable(map[string]vcode.SyscallFn{
		// ash_send(dst, vc, addr, len): transmit len bytes at addr as a
		// message — message initiation from inside the kernel, no system
		// call boundary.
		"ash_send": func(m *vcode.Machine) error {
			dst := int(m.Regs[vcode.RArg0])
			vc := int(m.Regs[vcode.RArg1])
			addr := m.Regs[vcode.RArg2]
			n := int(m.Regs[vcode.RArg3])
			data, err := m.Mem.Load(addr, n)
			if err != nil {
				return err
			}
			m.Charge(4) // argument staging
			s.curMC.Send(dst, vc, data)
			return nil
		},

		// ash_copy(src, dst, len): trusted data copy with access checks
		// aggregated at initiation time (Section III-B2: "these calls
		// allow access checks to be aggregated at initiation time").
		"ash_copy": func(m *vcode.Machine) error {
			src := m.Regs[vcode.RArg0]
			dst := m.Regs[vcode.RArg1]
			n := int(m.Regs[vcode.RArg2])
			m.Charge(12) // aggregated access check
			from, err := m.Mem.Load(src, n)
			if err != nil {
				return err
			}
			to, err := m.Mem.Store(dst, n)
			if err != nil {
				return err
			}
			copy(to, from)
			// The cost of a word-by-word copy loop, without per-reference
			// sandboxing.
			m.Charge(m.Cache.CopyRange(src, dst, n) + sim.Time((n+3)/4)*sim.Time(s.K.Prof.LoopOverhead))
			return nil
		},

		// ash_dilp(engine, src, dst, len): run a registered integrated
		// transfer engine over the data; RRet receives the engine's first
		// persistent register (e.g. the checksum accumulator), folded.
		"ash_dilp": func(m *vcode.Machine) error {
			id := int(m.Regs[vcode.RArg0])
			src := m.Regs[vcode.RArg1]
			dst := m.Regs[vcode.RArg2]
			n := int(m.Regs[vcode.RArg3])
			if id < 0 || id >= len(s.engines) {
				return fmt.Errorf("ash_dilp: no engine %d", id)
			}
			re := s.engines[id]
			m.Charge(12) // aggregated access check
			// The engine itself runs over the kernel's memory; the handler's
			// memory vouches for both ranges and pre-images dst.
			if _, err := m.Mem.Load(src, n); err != nil {
				return err
			}
			if _, err := m.Mem.Store(dst, n); err != nil {
				return err
			}
			// Reset persistent registers for a fresh application.
			for _, r := range re.eng.Prog.Persistent {
				re.machine.Regs[r] = 0
			}
			cycles, f := re.eng.Run(re.machine, src, dst, n)
			m.Charge(cycles)
			if f != nil {
				return f
			}
			if pr := re.eng.Prog.Persistent; len(pr) > 0 {
				m.Regs[vcode.RRet] = re.machine.Regs[pr[0]]
			}
			return nil
		},

		// ash_msg_load(offset): trusted message-word access; the bounds
		// check against the message was aggregated at handler entry.
		"ash_msg_load": func(m *vcode.Machine) error {
			off := m.Regs[vcode.RArg0]
			if int(off)+4 > s.curMC.Entry.Len {
				return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: off, Msg: "beyond message"}
			}
			addr := s.curMC.Entry.Addr + off
			if m.Cache != nil {
				m.Charge(m.Cache.Load(addr))
			}
			v, err := vcode.Load32(s.K.Mem, addr)
			if err != nil {
				return err
			}
			m.Regs[vcode.RRet] = v
			m.Charge(2)
			return nil
		},
	})
}
