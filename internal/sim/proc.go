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
	resume   func() // to the process; returns when it yields or ends
	yield    func() // back to whoever resumed it; returns at the next resume
	dead     bool
	parked   bool // parked with no scheduled wakeup
	timedOut bool // the pending ParkTimeout ended by its timer
	killed   bool // Engine.Close is ending it: see block
	onStack  bool // driving the engine's loop in runInPlace: on the resume stack

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
// events are dropped, so the goroutines behind the processes are done with
// them (a pooled coroutine goes back to its pool, see newHandoff) and
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
	for ev := e.q.PeekMin(); ev != nil; ev = e.q.PeekMin() {
		e.q.Pop(ev)
		e.recycle(ev)
	}
}

// procRun and procTimeout are the wake-up and ParkTimeout-expiry events.
// They take the process as the event argument, so scheduling one builds no
// closure, and an event whose argument is a *Proc is a process's wake-up
// (Engine.drive).
func procRun(a any) { a.(*Proc).run() }

func procTimeout(a any) {
	p := a.(*Proc)
	if p.parked {
		p.timedOut = true
		p.parked = false
		p.run()
	}
}

// run transfers control to the process until it parks or finishes. Must
// be called from event context: on the engine's goroutine, or on that of a
// blocked process driving the loop (Proc.runInPlace), which then resumes p
// itself, nested (Engine.drive), and is what runs again when p yields. A
// wake-up that arrives after the process finished is a no-op; one fired by
// the process's own blocked call switches nowhere, the process being the
// one running, and tells that call so by clearing e.self.
func (p *Proc) run() {
	if p.dead {
		return
	}
	e := p.eng
	e.handoffs++
	driver := e.self
	if driver == p {
		e.self = nil
		e.inPlace++
		return
	}
	if driver != nil {
		e.direct++
	}
	p.resume()
	e.self = driver
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

// block waits until the process is next woken. It runs the engine's loop
// itself first (runInPlace) and yields to whoever resumed it, the engine or
// another process's loop, only if that stopped short of its own wake-up.
// If the resume is Engine.Close's, or Close already ended this body and a
// deferred call is blocking again, it unwinds instead of returning.
func (p *Proc) block() {
	if !p.killed && !p.runInPlace() {
		p.yield()
	}
	if p.killed {
		panic(procKilled{})
	}
}

// runInPlace is Engine.run's work up to this process's wake-up, done on
// the process's own goroutine, with the process on the resume stack:
// Engine.drive fires the events due ahead of it exactly as the engine
// would, resuming any other process whose wake-up comes due from here
// (Proc.run), then the wake-up itself, which switches nowhere, and
// runInPlace reports true. drive stops short, leaving the queue as it is,
// at the wake-up of a process further up the stack, the one that resumed
// this process or one before it, or where the run ends — its limit, a
// pending Stop, an empty queue — and the process yields one level: to that
// process's loop, which carries on from there, or to the engine's. A
// panic raised here, a callback's or that of a process resumed from here,
// is recovered and handed up: the fire that resumed this process raises it
// again, so Run panics with the original value, not as this process's
// panic, and the process stays suspended until Close.
func (p *Proc) runInPlace() (woken bool) {
	e := p.eng
	if e.neverElide {
		return false
	}
	defer func() {
		p.onStack = false
		if r := recover(); r != nil {
			e.self, e.panicV, woken = nil, r, false
		}
	}()
	p.onStack = true
	e.self = p
	woken = e.drive(p)
	e.self = nil
	return woken
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
