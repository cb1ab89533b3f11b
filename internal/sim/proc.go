package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated thread of control: a coroutine of the engine. Exactly
// one of {engine, some process} executes at any real moment; control
// transfers are explicit (resume/yield, see newHandoff), so simulations
// involving many processes remain deterministic.
//
// A Proc's body may call Sleep, Park, and the blocking helpers; it must not
// touch the engine from any other goroutine.
type Proc struct {
	eng      *Engine
	name     string
	resume   func() // engine -> process; returns when the process yields or ends
	yield    func() // process -> engine; returns when the engine resumes it
	dead     bool
	parked   bool // parked with no scheduled wakeup
	timedOut bool // the pending ParkTimeout ended by its timer
	killed   bool // Engine.Close is ending it: see block

	// Live processes form a list through these so Close can find them.
	next, prev *Proc
}

// procKilled is the panic that unwinds a process's body when the engine
// is closed under it. Only Engine.Go's wrapper may recover it.
type procKilled struct{}

// Go creates a process executing fn and schedules it to start now.
// fn runs on its own goroutine but only while the engine is paused.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.link(p)
	p.resume = e.handoff(func(yield func()) {
		p.yield = yield
		defer func() {
			p.dead = true
			e.unlink(p)
			r := recover()
			if _, killed := r.(procKilled); r != nil && !killed {
				e.panicV = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}()
		if p.killed {
			return // closed before its first step
		}
		fn(p)
	})
	e.ScheduleArg(0, procRun, p)
	return p
}

// link and unlink keep the engine's list and count of live processes.
func (e *Engine) link(p *Proc) {
	e.procs++
	p.next = e.live
	if e.live != nil {
		e.live.prev = p
	}
	e.live = p
}

func (e *Engine) unlink(p *Proc) {
	e.procs--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.live = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.next, p.prev = nil, nil
}

// Close ends the simulation: every live process is ended and pending
// events are dropped, so the goroutines behind the processes exit and
// nothing the world owned stays reachable through them. It must be called
// from outside Run, by the goroutine that drives the engine.
//
// A process that never took its first step just ends. A suspended one is
// resumed with its kill mark set: the Sleep, Park or ParkTimeout it is in
// panics with a sentinel that unwinds the body, running its deferred calls
// (one that blocks again panics again), and that Go's wrapper swallows. A
// genuine panic raised while unwinding surfaces from Close as it would
// from Run. Afterwards Stats().LiveProcs is 0.
func (e *Engine) Close() {
	for p := e.live; p != nil; p = e.live {
		p.killed = true
		p.resume()
		if e.panicV != nil {
			v := e.panicV
			e.panicV = nil
			panic(v)
		}
		if !p.dead {
			panic(fmt.Sprintf("sim: process %q recovered from Close and blocked again", p.name))
		}
	}
	// Recycled, not just dropped: a Timer taken before Close must go stale,
	// or cancelling it afterwards would unlink an event no queue holds.
	for ev := e.q.PopMin(); ev != nil; ev = e.q.PopMin() {
		e.recycle(ev)
	}
}

// procRun and procTimeout are the wake-up and ParkTimeout-expiry events.
// They take the process as the event argument, so scheduling one builds no
// closure.
func procRun(a any) { a.(*Proc).run() }

func procTimeout(a any) {
	p := a.(*Proc)
	if p.parked {
		p.timedOut = true
		p.parked = false
		p.run()
	}
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// run transfers control from the engine to the process until it parks or
// finishes. Must be called from engine (event) context. A wake-up that
// arrives after the process finished is a no-op.
func (p *Proc) run() {
	if p.dead {
		return
	}
	p.eng.handoffs++
	p.resume()
}

// Sleep suspends the process for d cycles of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 || p.elide(d) {
		return
	}
	p.eng.ScheduleArg(d, procRun, p)
	p.block()
}

// elide is the fast path of Sleep and ParkTimeout. The process's wake-up,
// d cycles from now, would be the very next event the engine fires when
// every queued event is strictly later (one at the same instant was
// scheduled first and fires first), the run in progress reaches that far,
// no Stop is waiting for this event to complete, and Close is not ending
// the process. Then queueing it, yielding, popping it and resuming would
// change nothing but the host's clock: elide moves the engine's clock
// there, counts the event and the round trip that were not made, and
// reports true; the process just keeps running. Otherwise it reports false
// and has touched nothing, the queue included.
func (p *Proc) elide(d Time) bool {
	e := p.eng
	t := e.now + d
	if t < e.now || t > e.limit || e.stopped || p.killed || e.neverElide || t >= e.q.MinBound() {
		return false
	}
	e.now = t
	e.fired++
	e.handoffs++
	e.elided++
	return true
}

// Park blocks the process until another event or process calls Unpark.
func (p *Proc) Park() {
	p.parked = true
	p.block()
}

// block hands control to the engine until the process is next resumed. If
// that resume is Engine.Close's, or Close already ended this body and a
// deferred call is blocking again, it unwinds instead of returning.
func (p *Proc) block() {
	if !p.killed {
		p.yield()
	}
	if p.killed {
		panic(procKilled{})
	}
}

// Parked reports whether the process is blocked in Park or ParkTimeout
// (not in a plain Sleep).
func (p *Proc) Parked() bool { return p.parked }

// Unpark makes a parked process runnable again at the current virtual time.
// It may be called from event context or from another process. Unparking a
// process that is not parked panics: it would indicate a lost-wakeup race in
// the caller, which the lock-step protocol is designed to make impossible.
func (p *Proc) Unpark() {
	if p.dead {
		return
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked process %q", p.name))
	}
	p.parked = false
	p.eng.ScheduleArg(0, procRun, p)
}

// ParkTimeout parks the process for at most d cycles. It reports true if the
// process was explicitly unparked and false if the timeout expired.
func (p *Proc) ParkTimeout(d Time) bool {
	if p.elide(d) {
		return false // nothing could have unparked it before the timeout
	}
	// The timer is cancelled before returning, so no expiry from an
	// earlier call can still be queued to set timedOut behind this one.
	p.timedOut = false
	ev := p.eng.ScheduleArg(d, procTimeout, p)
	p.parked = true
	p.block()
	p.eng.Cancel(ev)
	return !p.timedOut
}
