package sim

import (
	"fmt"
	"runtime"
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
}

// Go creates a process executing fn and schedules it to start now.
// fn runs on its own goroutine but only while the engine is paused.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.procs++
	p.resume = e.handoff(func(yield func()) {
		p.yield = yield
		defer func() {
			p.dead = true
			e.procs--
			if r := recover(); r != nil {
				e.panicV = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}()
		fn(p)
	})
	e.ScheduleArg(0, procRun, p)
	return p
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
	if p.eng.oneP {
		// A coroutine switch never enters the Go scheduler, so on a single
		// P the engine and its processes would keep that P until sysmon
		// preempts them, and the runtime's own goroutines (the sweeper
		// above all) would advance only in those wall-clock slices: which
		// spans are free when the next world allocates its memory, and so
		// the peak RSS, then differs between runs of the same inputs. Give
		// the P up once per handoff, as the channel handoff did by
		// blocking. With a second P the runtime's goroutines run there and
		// a yield would buy nothing for a thread wake-up per call.
		runtime.Gosched()
	}
	p.resume()
}

// Sleep suspends the process for d cycles of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.eng.ScheduleArg(d, procRun, p)
	p.yield()
}

// Park blocks the process until another event or process calls Unpark.
func (p *Proc) Park() {
	p.parked = true
	p.yield()
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
	// The timer is cancelled before returning, so no expiry from an
	// earlier call can still be queued to set timedOut behind this one.
	p.timedOut = false
	ev := p.eng.ScheduleArg(d, procTimeout, p)
	p.parked = true
	p.yield()
	p.eng.Cancel(ev)
	return !p.timedOut
}
