package core

import (
	"ashs/internal/aegis"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// kernelHost is the System as the kernel entry points see it
// (sandbox.EntryPoints). A System builds the table once and every handler
// it installs shares it: ranges are checked against the running handler's
// own memory (m.Mem, the journal over the owner's address space), and the
// message is the running invocation's, s.curMC.
type kernelHost System

func (h *kernelHost) Ranges(m *vcode.Machine) vcode.Memory { return m.Mem }

func (h *kernelHost) Msg() aegis.Frame { return h.curMC.Frame() }

func (h *kernelHost) Send(dst, vc int, data []byte) { h.curMC.Send(dst, vc, data) }

func (h *kernelHost) DILP(m *vcode.Machine, id int, src, dst uint32, n int) (uint32, error) {
	return (*System)(h).runEngine(m, id, src, dst, n)
}

// runEngine runs registered engine id over [src, src+n) -> dst for both
// kinds of handler: it resets the engine's persistent registers, charges c
// (a vcode handler's machine or a Go handler's receive path) the aggregated
// access check and the engine's cycles, and returns the engine's first
// persistent register (e.g. the checksum accumulator).
func (s *System) runEngine(c interface{ Charge(sim.Time) }, id int, src, dst uint32, n int) (uint32, error) {
	if id < 0 || id >= len(s.engines) {
		return 0, &vcode.Fault{Kind: vcode.FaultBadCall, Msg: "no such engine"}
	}
	re := s.engines[id]
	c.Charge(sandbox.AccessCheckCycles)
	for _, r := range re.eng.Prog.Persistent {
		re.machine.Regs[r] = 0
	}
	cycles, f := re.eng.Run(re.machine, src, dst, n)
	c.Charge(cycles)
	if f != nil {
		return 0, f
	}
	var acc uint32
	if pr := re.eng.Prog.Persistent; len(pr) > 0 {
		acc = re.machine.Regs[pr[0]]
	}
	return acc, nil
}
