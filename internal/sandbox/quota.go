package sandbox

import (
	"ashs/internal/sim"
)

// QuotaLedger meters per-tenant handler execution against cycle budgets
// accounted over fixed windows of virtual time — the receive-livelock
// defense of Section VI-4 (see core.System.Quota). The SFI
// instrumentation already yields an exact cycle count for every handler
// run, so the kernel can debit each tenant's allowance precisely and
// refuse *eager* execution once the window's budget is spent. A refused
// message is not lost and the handler is not aborted — the message
// degrades to the lazy user-level delivery path, where the tenant pays
// for its own processing out of its scheduler quantum.
//
// The ledger is pure state: no clock reads, no randomness. Callers pass
// the current virtual time into Admit, which keeps replay deterministic.
type QuotaLedger struct {
	// WindowCycles is the accounting window length. Non-positive keeps a
	// single unbounded window (budgets then cap total lifetime spend).
	WindowCycles sim.Time
	// Budget is every tenant's per-window cycle allowance. Non-positive
	// means unlimited.
	Budget sim.Time

	// Admitted and Refused count eager-execution decisions across tenants.
	Admitted uint64
	Refused  uint64

	spent  map[string]sim.Time
	window sim.Time // index of the window spent refers to
}

// NewQuotaLedger creates a ledger with the given window and per-tenant
// budget (cycles per window).
func NewQuotaLedger(windowCycles, budget sim.Time) *QuotaLedger {
	return &QuotaLedger{
		WindowCycles: windowCycles,
		Budget:       budget,
		spent:        map[string]sim.Time{},
	}
}

// roll resets the spend table when now has moved into a new window.
func (q *QuotaLedger) roll(now sim.Time) {
	if q.WindowCycles <= 0 {
		return
	}
	w := now / q.WindowCycles
	if w == q.window {
		return
	}
	q.window = w
	for k := range q.spent {
		delete(q.spent, k)
	}
}

// Admit decides whether tenant may run a handler eagerly at virtual time
// now. False means the tenant's window budget is exhausted and the
// message should take the lazy user-level path instead.
func (q *QuotaLedger) Admit(tenant string, now sim.Time) bool {
	q.roll(now)
	if q.Budget > 0 && q.spent[tenant] >= q.Budget {
		q.Refused++
		return false
	}
	q.Admitted++
	return true
}

// Charge debits cycles from tenant's current window. Call after the
// handler ran, with the cycles it actually consumed; a run admitted near
// the window edge is charged to the window that admitted it.
func (q *QuotaLedger) Charge(tenant string, cycles sim.Time) {
	if cycles > 0 {
		q.spent[tenant] += cycles
	}
}
