// Package core implements the paper's contribution: application-specific
// safe message handlers (ASHs).
//
// An ASH is user-written code, downloaded into the kernel, that runs in
// the addressing context of its application when a message for that
// application arrives. The ASH system (one System per host):
//
//   - accepts handler object code (vcode programs), verifies and sandboxes
//     it (package sandbox), and installs it, handing back an identifier
//     (Section II: "downloads it into the operating system, handing back
//     an identifier to the user for later reference");
//   - associates installed handlers with demultiplexing points (AN2
//     virtual circuits or DPF filters on the Ethernet);
//   - invokes handlers after demultiplexing, with direct dynamic message
//     vectoring (handlers place message bytes anywhere in their
//     application's address space), message initiation (handlers send
//     replies from the kernel), and control initiation (general
//     computation);
//   - integrates data manipulations through dynamic ILP (package pipe):
//     compiled transfer engines are registered with the system and run via
//     the trusted ash_dilp entry point with checks aggregated at initiation;
//   - aborts handlers involuntarily on wild references, divide-by-zero, or
//     exhausted time budgets, and supports voluntary aborts (the handler
//     returns the message to the kernel to be handled normally).
package core

import (
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/pipe"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// ID names an installed ASH.
type ID int

// System is the per-host ASH system.
type System struct {
	K      *aegis.Kernel
	Policy *sandbox.Policy

	engines []*registeredEngine
	nextID  ID // numbers downloads; the system keeps no table of its handlers

	// syms is the entry-point table every handler's machine shares, built
	// at the first Download (most hosts of a fan-in world never make one);
	// curMC is the message of the running invocation, live only inside
	// HandleMsg.
	syms  []vcode.SyscallFn
	curMC *aegis.MsgCtx

	// Quota, when set, meters eager handler execution against per-tenant
	// windowed cycle budgets (see sandbox.QuotaLedger). Handlers carrying
	// a Tenant label are admitted against the ledger before running and
	// debited their exact SFI-accounted cycles after; over-budget tenants
	// are throttled, not aborted — their messages degrade to the lazy
	// user-level path, where processing is paid from the tenant's own
	// scheduler quantum. This is the receive-livelock defense of
	// Section VI-4: "the operating system must track the number of ASHs
	// recently executed for each process and refuse to execute any more
	// for processes receiving more than their share of messages" —
	// handlers are "fundamentally an eager technique", disabled under
	// high load. Nil disables metering entirely.
	Quota *sandbox.QuotaLedger

	// QuotaThrottled counts handler executions refused by the quota
	// ledger (across all tenants and handlers on this host).
	QuotaThrottled uint64

	// InjectAbort, when set, is consulted before each handler run so a
	// fault plane can force involuntary aborts. For AbortBudget the value
	// is an instruction allowance; for AbortTimer a premature cycle limit
	// standing in for the two-tick watchdog firing mid-handler. The abort
	// then takes the genuine involuntary-abort path: rollback, fallback
	// delivery, trip accounting.
	InjectAbort func(handler string) (AbortMode, int64)

	// AbortTripThreshold de-installs a handler from all its bindings once
	// its involuntary aborts reach the threshold — a repeatedly faulting
	// handler degrades permanently to the default user-level path rather
	// than burning kernel time aborting forever. Zero disables tripping.
	AbortTripThreshold int

	// InvoluntaryAborts counts handler executions terminated by the
	// system. AbortFallbacks counts the messages those aborted executions
	// re-vectored onto the default user-delivery path (the recovery half
	// of the abort discipline); TrippedHandlers counts de-installations.
	InvoluntaryAborts uint64
	AbortFallbacks    uint64
	TrippedHandlers   uint64
}

// AbortMode selects how an injected involuntary abort manifests.
type AbortMode int

const (
	// AbortNone injects nothing.
	AbortNone AbortMode = iota
	// AbortBudget forces instruction-budget exhaustion mid-handler.
	AbortBudget
	// AbortTimer forces the two-tick watchdog to expire mid-handler.
	AbortTimer
)

type registeredEngine struct {
	eng     *pipe.Engine
	machine *vcode.Machine // holds the engine's persistent registers
}

// NewSystem creates the ASH system for host k.
func NewSystem(k *aegis.Kernel) *System {
	return &System{K: k, Policy: sandbox.DefaultPolicy()}
}

// Options configures a download.
type Options struct {
	// Unsafe skips sandboxing (kernel-trusted code, used only to measure
	// sandboxing overhead as the paper does in Table V).
	Unsafe bool
	// Budget bounds execution in software-check mode; ignored in timer
	// mode, where the two-clock-tick watchdog governs.
	Budget int64
	// OptimizeSFI turns on the static-analysis check optimizer for this
	// download (check elision, loop hoisting, budget coarsening); the
	// system policy's other knobs are kept.
	OptimizeSFI bool
	// Profile attaches a per-instruction execution counter to the handler
	// so its runs accumulate the profile the DCG loop feeds back into
	// re-optimization (System.Reoptimize). Costs one counter bump per
	// executed instruction, so it stays off on measurement hot paths.
	Profile bool
}

// handler is what an ASH and a FuncASH have in common: identity, where it
// is installed, and the two ways the system refuses or retires it — the
// tenant quota and the abort trip threshold.
type handler struct {
	Name  string
	Owner *aegis.Process

	// Tenant labels this handler for quota accounting (see System.Quota).
	// Empty opts out: the handler is never admitted against the ledger.
	Tenant string

	sys    *System
	detach []func() // de-installs this handler from its bindings

	// Statistics.
	Invocations    uint64
	InvolAborts    uint64 // involuntary aborts of this handler
	QuotaThrottled uint64 // executions refused by the tenant quota
	Tripped        bool   // de-installed by the abort trip threshold
}

// attach installs self, the ASH or FuncASH embedding h, on a binding — an
// AN2 virtual circuit or an Ethernet filter — upstream of its notification
// ring. (The base keeps no pointer to its outer handler: two words on every
// download are a measurable share of download-churn's memory.)
func (h *handler) attach(b *aegis.Binding, self aegis.MsgHandler) {
	b.Handler = self
	h.OnTrip(func() {
		if b.Handler == self {
			b.Handler = nil
		}
	})
}

// OnTrip registers a de-installation action run if the handler trips the
// abort threshold. Callers that install the handler through an endpoint
// abstraction (the TCP fast path) register their own un-install here.
func (h *handler) OnTrip(fn func()) { h.detach = append(h.detach, fn) }

// quotaCheckCycles is the charge of a quota refusal check, in cycles;
// uncalibrated.
const quotaCheckCycles sim.Time = 2

// quotaRefuses admits one execution against the tenant's cycle budget.
// Over budget, it refuses eager execution — the message takes the lazy
// user-level path — and reports true.
func (h *handler) quotaRefuses(mc *aegis.MsgCtx) bool {
	q := h.sys.Quota
	if q == nil || h.Tenant == "" || q.Admit(h.Tenant, h.sys.K.Now()) {
		return false
	}
	h.QuotaThrottled++
	h.sys.QuotaThrottled++
	mc.Charge(quotaCheckCycles)
	if o := h.sys.K.Obs; o.Enabled() {
		o.Instant(h.sys.K.Name, "ash system", "ash",
			"quota throttled "+h.Name, mc.When())
	}
	return true
}

// quotaDebit charges an admitted execution's cycles to the tenant —
// aborted runs burned them too.
func (h *handler) quotaDebit(cycles sim.Time) {
	if q := h.sys.Quota; q != nil && h.Tenant != "" {
		q.Charge(h.Tenant, cycles)
	}
}

// noteInvoluntaryAbort does the abort bookkeeping: counters, the
// fallback-delivery count, and the trip threshold that de-installs a
// repeatedly faulting handler.
func (h *handler) noteInvoluntaryAbort() {
	h.InvolAborts++
	h.sys.InvoluntaryAborts++
	h.sys.AbortFallbacks++
	if th := h.sys.AbortTripThreshold; th > 0 && !h.Tripped && h.InvolAborts >= uint64(th) {
		h.Tripped = true
		h.sys.TrippedHandlers++
		for _, d := range h.detach {
			d()
		}
	}
}

// ASH is an installed handler.
type ASH struct {
	handler
	ID     ID
	Unsafe bool

	sandbox *sandbox.Program // nil when Unsafe
	code    *vcode.Program
	machine *vcode.Machine
	journal *vcode.Journal // undo log for involuntary-abort rollback
	budget  int64

	// Handler ABI: on entry RArg0 = message address, RArg1 = message
	// length, RArg2 = VC, RArg3 = source address. On exit RRet = 0 to
	// consume the message, nonzero to return it to the kernel (voluntary
	// abort to the user-level path).

	// Statistics (see also the embedded handler's).
	VoluntaryAborts  uint64
	InvoluntaryFault *vcode.Fault // last involuntary abort, for diagnosis
}

// Download verifies, sandboxes, and installs prog for owner, returning the
// handler. Unsafe handlers are still verified (they must be *wrong* only
// in cost, never in kind) but receive no instrumentation.
func (s *System) Download(owner *aegis.Process, prog *vcode.Program, opts Options) (*ASH, error) {
	if owner == nil {
		return nil, fmt.Errorf("core: ASH needs an owning process (addressing context)")
	}
	a := &ASH{
		handler: handler{Name: prog.Name, Owner: owner, sys: s},
		ID:      s.nextID, Unsafe: opts.Unsafe, budget: opts.Budget,
	}
	if opts.Unsafe {
		code, err := sandbox.Verify(prog, s.Policy)
		if err != nil {
			return nil, err
		}
		a.code = code
	} else {
		pol := s.Policy
		if opts.OptimizeSFI && !pol.Optimize {
			opt := *pol
			opt.Optimize = true
			pol = &opt
		}
		sp, err := sandbox.Sandbox(prog, pol)
		if err != nil {
			return nil, err
		}
		a.sandbox = sp
		a.code = sp.Code
	}
	// Every store the handler performs goes through an undo journal so an
	// involuntary abort can roll the owner's memory back bit-for-bit.
	a.journal = vcode.NewJournal(owner.AS)
	a.machine = vcode.NewMachine(s.K.Prof, a.journal)
	a.machine.Cache = s.K.Cache
	if s.syms == nil {
		s.syms = sandbox.EntryPoints((*kernelHost)(s))
	}
	a.machine.Syms = s.syms
	if a.sandbox != nil {
		a.sandbox.Attach(a.machine, 0, ^uint32(0), opts.Budget)
		// Real addressing enforcement is the owner's address space (the
		// machine's Memory); the SFI instructions charge the check costs.
	}
	if opts.Profile {
		a.machine.PCCounts = make([]uint64, len(a.code.Insns))
	}
	s.nextID++
	if o := s.K.Obs; o.Enabled() {
		o.Instant(s.K.Name, "ash system", "ash", "download+verify "+a.Name,
			s.K.Now())
	}
	return a, nil
}

// MustDownload is Download that panics on error.
func (s *System) MustDownload(owner *aegis.Process, prog *vcode.Program, opts Options) *ASH {
	a, err := s.Download(owner, prog, opts)
	if err != nil {
		panic(err)
	}
	return a
}

// RegisterEngine installs a compiled DILP transfer engine and returns the
// id handlers pass to ash_dilp. The engine's persistent registers (e.g.
// checksum accumulators) live with the registration.
func (s *System) RegisterEngine(e *pipe.Engine) int {
	m := vcode.NewMachine(s.K.Prof, s.K.Mem)
	m.Cache = s.K.Cache
	s.engines = append(s.engines, &registeredEngine{eng: e, machine: m})
	return len(s.engines) - 1
}

// Attach installs the handler on a binding (see handler.attach).
func (a *ASH) Attach(b *aegis.Binding) { a.attach(b, a) }

// HandleMsg implements aegis.MsgHandler: the kernel invokes the ASH after
// demultiplexing.
func (a *ASH) HandleMsg(mc *aegis.MsgCtx) aegis.Disposition {
	prof := a.sys.K.Prof
	if a.quotaRefuses(mc) {
		return aegis.DispToUser
	}
	a.Invocations++
	invokeStart := mc.When()
	m := a.machine
	// Saved and restored rather than cleared, so that an invocation nested
	// in this run (none is today: sends wait for the commit) would hand the
	// entry points this message back.
	outer := a.sys.curMC
	a.sys.curMC = mc

	// Time bounding (Section III-B3) is orthogonal to memory protection:
	// the watchdog timer is armed for every safe handler except under the
	// software-budget strategy, whose inserted checks replace it
	// ("systems with timers can be exploited to remove all software
	// checks" — and vice versa).
	useTimer := !a.Unsafe && (a.sandbox == nil || a.sandbox.Policy.Budget != sandbox.BudgetSoftware)
	if useTimer {
		mc.Charge(sim.Time(prof.TimerArmCycles))
		m.CycleLimit = 2 * sim.Time(prof.ClockTickCycles)
	} else {
		m.CycleLimit = 0
	}

	// Snapshot for rollback: persistent registers by value (taken before
	// the argument registers are loaded, so an aborted invocation leaves
	// the register file exactly as the previous one did), memory via the
	// undo journal.
	regs := m.Regs
	a.journal.Reset()

	m.Regs[vcode.RArg0] = mc.Entry.Addr
	m.Regs[vcode.RArg1] = uint32(mc.Entry.Len)
	m.Regs[vcode.RArg2] = uint32(mc.Entry.VC)
	m.Regs[vcode.RArg3] = uint32(mc.Entry.Src)
	savedInsnBudget, savedCycleLimit := m.InsnBudget, m.CycleLimit
	if inject := a.sys.InjectAbort; inject != nil {
		switch mode, after := inject(a.Name); mode {
		case AbortBudget:
			m.InsnBudget = after
		case AbortTimer:
			m.CycleLimit = sim.Time(after)
		}
	}

	fault := m.Run(a.code)
	m.InsnBudget, m.CycleLimit = savedInsnBudget, savedCycleLimit
	mc.Charge(m.Cycles)
	a.quotaDebit(m.Cycles)
	if useTimer {
		mc.Charge(sim.Time(prof.TimerArmCycles)) // clear the watchdog
	}
	a.sys.curMC = outer

	if fault != nil {
		// Involuntary abort: the system protects itself; the application
		// "may no longer operate correctly". Its memory and the handler's
		// persistent registers roll back to the pre-invocation state, and
		// the message falls back to the normal user-level path so the
		// application still observes it — delivered exactly once, by the
		// demultiplexor's default action.
		a.journal.Undo()
		m.Regs = regs
		a.InvoluntaryFault = fault
		a.noteInvoluntaryAbort()
		if o := a.sys.K.Obs; o.Enabled() {
			o.Span(a.sys.K.Name, "ash system", "ash", "ash "+a.Name,
				invokeStart, mc.When()-invokeStart)
			o.Instant(a.sys.K.Name, "ash system", "ash",
				"involuntary abort "+a.Name, mc.When())
		}
		return aegis.DispToUser
	}
	if o := a.sys.K.Obs; o.Enabled() {
		o.Span(a.sys.K.Name, "ash system", "ash", "ash "+a.Name,
			invokeStart, mc.When()-invokeStart)
	}
	if m.Regs[vcode.RRet] != 0 {
		// Voluntary abort: the handler examined the message and returned
		// it to the kernel to be handled normally.
		a.VoluntaryAborts++
		if o := a.sys.K.Obs; o.Enabled() {
			o.Instant(a.sys.K.Name, "ash system", "ash",
				"voluntary abort "+a.Name, mc.When())
		}
		return aegis.DispToUser
	}
	return aegis.DispConsumed
}

// AsUpcall wraps the same handler code as a fast asynchronous upcall: it
// runs at user level (no sandboxing needed, but upcall dispatch costs and
// system-call sends apply), so the paper's ASH-vs-upcall comparisons run
// identical handler code in both placements.
func (a *ASH) AsUpcall() *aegis.Upcall {
	return aegis.NewUpcall(a.Owner, a.HandleMsg)
}

// LastInsns reports the dynamic instruction count of the most recent run.
func (a *ASH) LastInsns() int64 { return a.machine.Insns }
