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
// sandboxing off the bulk-data path.

// syscalls builds the entry-point table for handler a.
func (s *System) syscalls(a *ASH) map[string]vcode.SyscallFn {
	return map[string]vcode.SyscallFn{
		// ash_send(dst, vc, addr, len): transmit len bytes at addr as a
		// message — message initiation from inside the kernel, no system
		// call boundary.
		"ash_send": func(m *vcode.Machine) error {
			dst := int(m.Regs[vcode.RArg0])
			vc := int(m.Regs[vcode.RArg1])
			addr := m.Regs[vcode.RArg2]
			n := int(m.Regs[vcode.RArg3])
			data, err := a.Owner.AS.Bytes(addr, n)
			if err != nil {
				return err
			}
			m.Charge(4) // argument staging
			a.curMC.Send(dst, vc, data)
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
			return s.trustedCopy(m, a, src, dst, n)
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
			if err := s.checkRange(a, src, n); err != nil {
				return err
			}
			if err := s.checkRange(a, dst, n); err != nil {
				return err
			}
			if a.journal != nil {
				// The engine writes dst through the kernel's raw view, so
				// pre-image the range for involuntary-abort rollback.
				a.journal.PreImageRange(dst, n)
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
			if int(off)+4 > a.curMC.Entry.Len {
				return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: off, Msg: "beyond message"}
			}
			addr := a.curMC.Entry.Addr + off
			if m.Cache != nil {
				m.Charge(m.Cache.Load(addr))
			}
			v, err := s.K.Mem.Load32(addr)
			if err != nil {
				return err
			}
			m.Regs[vcode.RRet] = v
			m.Charge(2)
			return nil
		},
	}
}

// checkRange validates [addr, addr+n) against the owner's address space.
func (s *System) checkRange(a *ASH, addr uint32, n int) error {
	if n == 0 {
		return nil
	}
	if _, err := a.Owner.AS.Bytes(addr, n); err != nil {
		return err
	}
	return nil
}

// trustedCopy moves n bytes at the cost of a word-by-word copy loop but no
// per-reference sandboxing (the checks were aggregated).
func (s *System) trustedCopy(m *vcode.Machine, a *ASH, src, dst uint32, n int) error {
	if err := s.checkRange(a, src, n); err != nil {
		return err
	}
	if err := s.checkRange(a, dst, n); err != nil {
		return err
	}
	if a.journal != nil {
		// The copy below bypasses the journaled Memory, so pre-image the
		// destination for involuntary-abort rollback.
		a.journal.PreImageRange(dst, n)
	}
	copy(s.K.Bytes(dst, n), s.K.Bytes(src, n))
	m.Charge(m.Cache.CopyRange(src, dst, n) + sim.Time((n+3)/4)*sim.Time(s.K.Prof.LoopOverhead))
	return nil
}
