package sandbox

import (
	"ashs/internal/aegis"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// The kernel entry points an ASH may call (Section III-B2: indirect jumps
// "to operating system calls explicitly allowed by the system (such as the
// network send system call)" proceed; everything else aborts). They are the
// trusted, aggregated-check services that keep per-reference sandboxing off
// the bulk-data path: each asks its Host's range memory once for a whole
// range — Load for what it reads, Store for what it writes — which is the
// protection check, the residency check and, over a journal, the rollback
// pre-image in one. A zero-length range is lent anywhere.
//
// This table is the only definition of them: the verifier admits a call
// exactly when it names an entry here, core.System runs them over the
// kernel, and the three-way harness runs them over its region.

// AccessCheckCycles is the aggregated access check, in cycles: what
// ash_copy, and the engine run behind ash_dilp and a Go handler's DILP,
// charge once for a whole range in place of per-reference sandboxing.
// Uncalibrated.
const AccessCheckCycles sim.Time = 12

// The other entry points' own charges, in cycles.
const (
	sendStagingCycles sim.Time = 4 // uncalibrated: ash_send's argument staging
	msgLoadCycles     sim.Time = 2 // uncalibrated: ash_msg_load's trusted word access
)

// Host is what the entry points need from the system they run in.
type Host interface {
	// Ranges is the memory a range that the handler running on m names is
	// checked against and lent from.
	Ranges(m *vcode.Machine) vcode.Memory
	// Msg is the message being handled, as its device laid it out.
	Msg() aegis.Frame
	// Send transmits data, which is only lent for the call.
	Send(dst, vc int, data []byte)
	// DILP runs registered transfer engine id over [src, src+n) → dst,
	// charging m, and returns the engine's first persistent register. An
	// unknown id is a FaultBadCall.
	DILP(m *vcode.Machine, id int, src, dst uint32, n int) (uint32, error)
}

// The entry points' Syms, interned once.
var (
	symSend    = vcode.Intern("ash_send")
	symCopy    = vcode.Intern("ash_copy")
	symDILP    = vcode.Intern("ash_dilp")
	symMsgLoad = vcode.Intern("ash_msg_load")
)

// isEntryPoint reports whether s names an entry point.
func isEntryPoint(s vcode.Sym) bool {
	return s == symSend || s == symCopy || s == symDILP || s == symMsgLoad
}

// EntryPoints builds the entry-point table over h, indexed by vcode.Sym
// (a vcode.Machine's Syms).
func EntryPoints(h Host) []vcode.SyscallFn {
	t := make([]vcode.SyscallFn, max(symSend, symCopy, symDILP, symMsgLoad)+1)
	t[symSend] = ashSend(h)
	t[symCopy] = ashCopy(h)
	t[symDILP] = ashDILP(h)
	t[symMsgLoad] = ashMsgLoad(h)
	return t
}

// ash_send(dst, vc, addr, len): transmit len bytes at addr as a message —
// message initiation from inside the kernel, no system call boundary.
func ashSend(h Host) vcode.SyscallFn {
	return func(m *vcode.Machine) error {
		data, err := h.Ranges(m).Load(m.Regs[vcode.RArg2], int(m.Regs[vcode.RArg3]))
		if err != nil {
			return err
		}
		m.Charge(sendStagingCycles)
		h.Send(int(m.Regs[vcode.RArg0]), int(m.Regs[vcode.RArg1]), data)
		return nil
	}
}

// ash_copy(src, dst, len): trusted data copy with access checks aggregated
// at initiation time (Section III-B2: "these calls allow access checks to
// be aggregated at initiation time"). It is Go's copy over the two lent
// windows, so an overlapping copy is a memmove.
func ashCopy(h Host) vcode.SyscallFn {
	return func(m *vcode.Machine) error {
		src := m.Regs[vcode.RArg0]
		dst := m.Regs[vcode.RArg1]
		n := int(m.Regs[vcode.RArg2])
		m.Charge(AccessCheckCycles)
		mem := h.Ranges(m)
		from, err := mem.Load(src, n)
		if err != nil {
			return err
		}
		to, err := mem.Store(dst, n)
		if err != nil {
			return err
		}
		copy(to, from)
		// The cost of a word-by-word copy loop, without per-reference
		// sandboxing.
		c := sim.Time((n+3)/4) * sim.Time(m.Prof.LoopOverhead)
		if m.Cache != nil {
			c += m.Cache.CopyRange(src, dst, n)
		}
		m.Charge(c)
		return nil
	}
}

// ash_dilp(engine, src, dst, len): run a registered integrated transfer
// engine over the data; RRet receives the engine's first persistent
// register (e.g. the checksum accumulator), folded. The engine runs over
// the kernel's memory; the range memory vouches for both ranges and
// pre-images dst.
func ashDILP(h Host) vcode.SyscallFn {
	return func(m *vcode.Machine) error {
		src := m.Regs[vcode.RArg1]
		dst := m.Regs[vcode.RArg2]
		n := int(m.Regs[vcode.RArg3])
		mem := h.Ranges(m)
		if _, err := mem.Load(src, n); err != nil {
			return err
		}
		if _, err := mem.Store(dst, n); err != nil {
			return err
		}
		acc, err := h.DILP(m, int(m.Regs[vcode.RArg0]), src, dst, n)
		if err != nil {
			return err
		}
		m.Regs[vcode.RRet] = acc
		return nil
	}
}

// ash_msg_load(offset): trusted message-word access, the big-endian word
// at data offset offset of the message read through its frame; the bounds
// check against the message was aggregated at handler entry.
func ashMsgLoad(h Host) vcode.SyscallFn {
	return func(m *vcode.Machine) error {
		off := m.Regs[vcode.RArg0]
		f := h.Msg()
		if int(off)+4 > f.Len() {
			return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: off, Msg: "beyond message"}
		}
		if m.Cache != nil {
			addr, _ := f.Line(int(off))
			m.Charge(m.Cache.Load(addr))
		}
		m.Regs[vcode.RRet] = f.U32(int(off))
		m.Charge(msgLoadCycles)
		return nil
	}
}
