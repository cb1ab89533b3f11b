package core

import (
	"ashs/internal/aegis"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
)

// FuncASH is a handler whose logic is expressed as a Go function with
// explicit cost accounting, rather than as vcode object code. The paper's
// handlers are C compiled to machine code; our vcode ASHs model that
// pipeline end-to-end for the instruction-counting experiments, while
// FuncASH is the pragmatic form used for rich protocol fast paths (the TCP
// receive handler of Section V-B), where writing hundreds of lines of IR
// would obscure the protocol logic without changing the measured costs.
//
// The cost model is identical: a sandboxed FuncASH pays the watchdog-timer
// arms, the sandbox entry/exit sequence, and two extra instructions per
// declared memory operation — exactly what the instrumentation pass adds
// to vcode handlers.
type FuncASH struct {
	handler
	Sandboxed bool
	Fn        func(c *Ctx) aegis.Disposition

	// LastPathCost is the receive-path cycles accumulated when the last
	// invocation finished. The only involuntary aborts a FuncASH sees are
	// the fault plane's (InvolAborts counts them).
	LastPathCost sim.Time

	// ctx is the invocation's environment. Invocations do not nest and Fn
	// may not keep it, so one serves them all.
	ctx Ctx
}

// NewFuncASH installs a Go-native handler. sandboxed selects whether the
// handler is charged sandboxing costs (Table V/VI compare both).
func (s *System) NewFuncASH(owner *aegis.Process, name string, sandboxed bool, fn func(c *Ctx) aegis.Disposition) *FuncASH {
	return &FuncASH{handler: handler{Name: name, Owner: owner, sys: s}, Sandboxed: sandboxed, Fn: fn}
}

// Attach installs the handler on a binding (see handler.attach).
func (f *FuncASH) Attach(b *aegis.Binding) { f.attach(b, f) }

// HandleMsg implements aegis.MsgHandler.
func (f *FuncASH) HandleMsg(mc *aegis.MsgCtx) aegis.Disposition {
	if f.quotaRefuses(mc) {
		f.LastPathCost = mc.Cost()
		return aegis.DispToUser
	}
	f.Invocations++
	prof := f.sys.K.Prof
	if inject := f.sys.InjectAbort; inject != nil {
		if mode, after := inject(f.Name); mode != AbortNone {
			// The watchdog (or budget check) fires mid-handler. Fn never
			// ran its commit, so there is nothing to roll back beyond the
			// partial cycles already burned; the message re-vectors to the
			// default user-level path, delivered exactly once.
			if f.Sandboxed {
				mc.Charge(sim.Time(prof.TimerArmCycles + sandbox.PrologueLen))
			}
			mc.Charge(sim.Time(after))
			f.noteInvoluntaryAbort()
			f.LastPathCost = mc.Cost()
			return aegis.DispToUser
		}
	}
	c0 := mc.Cost()
	if f.Sandboxed {
		// Watchdog arm + sandbox entry sequence.
		mc.Charge(sim.Time(prof.TimerArmCycles + sandbox.PrologueLen))
	}
	f.ctx = Ctx{mc: mc, sys: f.sys, sandboxed: f.Sandboxed}
	d := f.Fn(&f.ctx)
	if f.Sandboxed {
		// Exit sequence + watchdog clear.
		mc.Charge(sim.Time(sandbox.EpilogueLen + prof.TimerArmCycles))
	}
	// Debit the handler's declared costs: everything this invocation
	// charged to the receive path.
	f.quotaDebit(mc.Cost() - c0)
	f.LastPathCost = mc.Cost()
	return d
}

// Ctx is the execution environment of a Go-native handler (or upcall): it
// charges modeled costs to the message's receive path and exposes the
// kernel services an ASH may use.
type Ctx struct {
	mc        *aegis.MsgCtx
	sys       *System
	sandboxed bool
}

// UpcallCtx wraps a message context for an upcall handler body, so the
// same protocol fast path can run as either an ASH or an upcall (user
// level: no sandboxing multiplier, sends pay the system call).
func (s *System) UpcallCtx(mc *aegis.MsgCtx) *Ctx {
	return &Ctx{mc: mc, sys: s}
}

// Entry returns the ring entry describing where the message landed.
func (c *Ctx) Entry() aegis.RingEntry { return c.mc.Entry }

// Data returns the raw message bytes. Reading through Data is "free";
// handlers declare their modeled access costs via Straightline.
func (c *Ctx) Data() []byte { return c.mc.Data() }

// Frame is the message as its device laid it out: the reader of a striped
// Ethernet arrival, which Data reads only up to its first pad line.
func (c *Ctx) Frame() aegis.Frame { return c.mc.Frame() }

// Straightline models a run of handler code: insns instructions of which
// memops reference memory. Sandboxed handlers pay 2 extra instructions per
// memory operation (the SFI staging + check).
func (c *Ctx) Straightline(insns, memops int) {
	if c.sandboxed {
		insns += 2 * memops
	}
	c.mc.Charge(sim.Time(insns))
}

// Send transmits a message from the handler (kernel level for ASHs, via
// the system call interface for upcalls — the context knows which).
func (c *Ctx) Send(dst, vc int, data []byte) { c.mc.Send(dst, vc, data) }

// DILP runs a registered transfer engine over [src, src+n) -> dst,
// returning the engine's first persistent register (e.g. the checksum
// accumulator). Checks are aggregated; per-word costs come from the
// engine's generated loop.
func (c *Ctx) DILP(engineID int, src, dst uint32, n int) (uint32, error) {
	return c.sys.runEngine(c.mc, engineID, src, dst, n)
}

// When reports the virtual time at which this handler's work completes.
func (c *Ctx) When() sim.Time { return c.mc.When() }

// Doorbell posts a zero-length ring notification so the user-level
// library re-examines the shared state this handler updated.
func (c *Ctx) Doorbell() { c.mc.Doorbell() }
