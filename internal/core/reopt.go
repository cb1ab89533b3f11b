package core

// Profile-guided re-optimization: the DCG loop closed. A handler
// downloaded with Options.Profile accumulates a per-instruction execution
// counter; ExportProfile maps those counts back through the jump table to
// original instruction indices (the coordinate system the optimizer plans
// in) and Reoptimize re-runs the SFI optimizer with the observed-hot
// information attached to the policy, hot-swapping the handler's
// installed code in place. Bindings, persistent registers, statistics,
// and the undo journal all survive the swap — only the instrumented code
// (and its jump table) changes.

import (
	"fmt"

	"ashs/internal/sandbox"
	"ashs/internal/vcode/reopt"
)

// ExportProfile snapshots the handler's accumulated execution profile in
// original-program coordinates: Counts[i] is how many times original
// instruction i executed across Invocations handler runs. Returns nil if
// the handler was not downloaded with Options.Profile. The live counters
// keep accumulating; the snapshot is independent.
func (a *ASH) ExportProfile() *reopt.Profile {
	m := a.machine
	if m.PCCounts == nil {
		return nil
	}
	var counts []uint64
	if a.sandbox == nil {
		// Unsafe handlers run the original code directly: identity map.
		counts = append([]uint64(nil), m.PCCounts...)
	} else {
		counts = a.sandbox.OrigCounts(m.PCCounts)
	}
	return &reopt.Profile{
		Handler:     a.Name,
		Invocations: a.Invocations,
		Counts:      counts,
	}
}

// Reoptimize re-instruments the handler's original program with its
// accumulated execution profile attached and installs the result in
// place. The handler must be safe (sandboxed) and downloaded with
// Options.Profile. The swap preserves the handler's identity: bindings,
// persistent register values, journal, budget, and statistics carry
// over; profiling counters restart against the new code layout.
//
// Soundness is the optimizer's, not the profile's: the profile only
// nominates instructions among candidates the static analysis has already
// proven transformable, so a stale, empty, or adversarial profile can
// change cost but never semantics (the three-way differential harness
// holds this over every registry handler and fuzzed profiles).
func (s *System) Reoptimize(a *ASH) (*reopt.Profile, error) {
	if a.Unsafe {
		return nil, fmt.Errorf("core: cannot reoptimize unsafe handler %s (no sandbox to re-instrument)", a.Name)
	}
	prof := a.ExportProfile()
	if prof == nil {
		return nil, fmt.Errorf("core: handler %s was not downloaded with profiling", a.Name)
	}
	pol := *a.sandbox.Policy
	pol.Optimize = true
	pol.Profile = prof
	sp, err := sandbox.Sandbox(a.sandbox.Orig, &pol)
	if err != nil {
		return nil, err
	}
	a.sandbox = sp
	a.code = sp.Code
	sp.Attach(a.machine, 0, ^uint32(0), a.budget)
	a.machine.PCCounts = make([]uint64, len(a.code.Insns))
	if o := s.K.Obs; o.Enabled() {
		o.Instant(s.K.Name, "ash system", "ash", "reoptimize "+a.Name,
			s.K.Now())
	}
	return prof, nil
}
