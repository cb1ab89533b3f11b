// Package costdiscipline is ashlint/costdiscipline's golden file: cycle
// charges of bare literals seeded next to named and computed ones.
package costdiscipline

import "ashs/internal/sim"

type Machine struct{ Cycles sim.Time }

func (m *Machine) Charge(c sim.Time) { m.Cycles += c }

type Process struct{ used sim.Time }

func (p *Process) Compute(c sim.Time) { p.used += c }

// Quota.Charge debits a tenant: two parameters, not a cycle charge.
type Quota struct{ debt map[string]sim.Time }

func (q *Quota) Charge(tenant string, c sim.Time) { q.debt[tenant] += c }

// Tally.Charge counts in ints, not cycles.
type Tally struct{ n int }

func (t *Tally) Charge(n int) { t.n += n }

// accessCheckCycles is the aggregated access check; uncalibrated.
const accessCheckCycles sim.Time = 12

const wordsPerLine = 4

// --- bare literals ---------------------------------------------------

func literals(m *Machine, p *Process, c interface{ Charge(sim.Time) }) {
	m.Charge(12)            // want "bare literal 12 charged"
	m.Charge(sim.Time(2))   // want "bare literal sim.Time\\(2\\) charged"
	p.Compute(4 * (10 + 1)) // want "bare literal"
	p.Compute((60))         // want "bare literal"
	c.Charge(0)             // want "bare literal 0 charged"
}

// --- named and computed charges --------------------------------------

func named(m *Machine, p *Process, q *Quota, t *Tally, n int, prof struct{ Cycles int }) {
	m.Charge(accessCheckCycles)
	m.Charge(sim.Time(wordsPerLine) * 3)
	p.Compute(sim.Time(n) * 2)
	p.Compute(sim.Time(prof.Cycles))
	q.Charge("tenant", 12)
	t.Charge(12)
	charge(12)
}

// charge is a function, not a method: out of scope.
func charge(c sim.Time) { _ = c }
