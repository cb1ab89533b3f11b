package aegis

import "ashs/internal/sim"

// Cond is a condition variable for simulated processes on one host: a
// waiter releases the CPU until another process (or an event) signals it.
// The lock-step engine makes lost wakeups impossible, so there is no
// associated mutex.
type Cond struct {
	waiters []*condWaiter
}

type condWaiter struct {
	p        *Process
	timedOut bool
	timer    sim.Timer
}

// WaitTimeout releases the CPU and blocks p until Broadcast, for at most d
// cycles. It reports true if woken by Broadcast and false on timeout.
func (c *Cond) WaitTimeout(p *Process, d sim.Time) bool {
	w := &condWaiter{p: p}
	w.timer = p.K.Eng.Schedule(d, func() {
		for i, x := range c.waiters {
			if x == w {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				w.timedOut = true
				w.p.Wake(0)
				return
			}
		}
	})
	c.waiters = append(c.waiters, w)
	p.block()
	p.K.Eng.Cancel(w.timer)
	return !w.timedOut
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(extra sim.Time) {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.p.Wake(extra)
	}
}
