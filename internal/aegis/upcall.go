package aegis

import (
	"ashs/internal/sim"
)

// Upcall is a fast asynchronous upcall (Section V, "we implemented fast
// asynchronous upcalls to compare ASHs with"): application code run at
// user level in response to a message, without a full process switch.
// Because the code is not downloaded into the kernel it needs no
// sandboxing, but each invocation pays the upcall dispatch machinery
// (designed to batch messages) and — if the owning process is not the one
// whose address space is live — a Liedtke-style address-space switch.
type Upcall struct {
	Owner *Process
	// Fn is the user-level handler. It charges its own work through the
	// context and returns a Disposition like an ASH would.
	Fn func(mc *MsgCtx) Disposition

	// Invocations counts dispatches.
	Invocations uint64
}

// NewUpcall registers handler fn for process p.
func NewUpcall(p *Process, fn func(mc *MsgCtx) Disposition) *Upcall {
	return &Upcall{Owner: p, Fn: fn}
}

// dispatch runs the upcall on the arrival path.
func (u *Upcall) dispatch(mc *MsgCtx) Disposition {
	u.Invocations++
	k := mc.K
	s0 := mc.When()
	mc.Charge(sim.Time(k.Prof.UpcallDispatch))
	if k.Current() != u.Owner {
		// Address-space switch only — the whole point of upcalls is that
		// this is much cheaper than scheduling the process.
		mc.Charge(sim.Time(k.Prof.AddrSpaceSwitch))
	}
	// The span covers only the dispatch machinery; the handler body
	// accounts for itself (ASH-backed upcalls emit their own "ash" span,
	// so wrapping Fn here would double-count).
	if o := k.Obs; o.Enabled() {
		o.Span(k.Name, "device", "upcall", "upcall "+u.Owner.Name, s0, mc.When()-s0)
	}
	mc.userLevel = true
	d := u.Fn(mc)
	mc.userLevel = false
	return d
}
