// Package sim provides a deterministic discrete-event simulation engine
// with virtual time measured in CPU cycles.
//
// The engine is the substrate under every experiment in this repository:
// the paper's measurements were taken on real DECstation 5000/240s, while
// ours are taken on a simulated pair of hosts whose clocks are driven by
// this engine (see DESIGN.md for the substitution argument).
//
// Two styles of simulated activity are supported:
//
//   - event callbacks, scheduled with Schedule/ScheduleAt, which run to
//     completion at a virtual instant; and
//   - processes (Proc), coroutines that interleave with the engine in strict
//     lock-step: at most one process or event callback executes at any real
//     moment, so simulations are fully deterministic.
//
// Determinism: events at equal virtual times fire in scheduling order
// (FIFO by sequence number). A process only starts running when the engine
// resumes it, and the clock moves only through the schedule: the engine
// fires the next event, or the one running process, finding that its own
// wake-up would be that next event, moves the clock there itself and keeps
// running (Proc.Sleep; the schedule is the same, the wake-up and the two
// coroutine switches around it are never made). A process that blocks runs
// the engine's loop itself, on its own goroutine, as far as its own wake-up
// (Proc.block): the same events fire in the same order, and a switch is
// made only where another process is to run. That process it resumes
// itself, nested on its own goroutine, and the resumed one, blocking in
// turn, drives on until it meets the wake-up of a process that resumed it
// (or the end of the run) and only then yields back one level, where that
// wake-up is taken in place: a handoff from one process to the next is one
// switch, not two through the engine's goroutine.
//
// The engine runs against an EventQueue and recycles Events through a
// freelist, so steady-state scheduling performs zero heap allocations. It
// starts on a small sorted set of at most smallCap events, held inline in
// the Engine, which is all a two-host world ever keeps pending; the first
// insert past the cap moves the set onto a hierarchical timing wheel, which
// the engine runs on for the rest of its life (a crowded world: fan-in,
// overload). The tests swap in a binary heap as the oracle of both.
// Because fired events are reused, Schedule/ScheduleAt hand back a Timer —
// a generation-checked handle — rather than the *Event itself; cancelling
// a Timer whose event already fired (and possibly now carries an unrelated
// callback) is a safe no-op.
package sim

import (
	"fmt"
	"math"
)

// Time is a virtual timestamp or duration, measured in CPU cycles of the
// simulated machine. The zero Time is the beginning of the simulation.
type Time int64

// maxTime is the limit of a Run and an empty queue's MinBound.
const maxTime Time = math.MaxInt64

// Timer is a cancellable handle on a scheduled event. The zero Timer is
// inert: cancelling it does nothing. Timers are plain values — copy them
// freely, compare against Timer{} to test for "never armed".
type Timer struct {
	ev  *Event
	gen uint64
}

// Engine is a discrete-event simulator. It is not safe for concurrent use
// by multiple goroutines except through the Proc lock-step protocol.
type Engine struct {
	now     Time
	seq     uint64
	q       EventQueue
	free    *Event // recycled events, chained through next
	procs   int    // live (created, not yet finished) processes
	live    *Proc  // those processes, newest first (Close walks it)
	panicV  any    // propagated panic from a process, or from a callback it fired
	stopped bool
	// neverElide makes every wake-up a queued event that the engine's own
	// loop fires; only the differential tests set it.
	neverElide bool

	// limit is the time the Run or RunUntil in progress (or, between runs,
	// the last one) fires events up to: a process may not move the clock
	// past it (Proc.elide, Proc.runInPlace).
	limit Time

	// self is the process whose blocked call is running the engine's loop
	// on its own goroutine (Proc.runInPlace), nil while the engine's
	// goroutine runs it. Proc.run clears it when self's wake-up fires, and
	// puts it back when a process it resumed from there yields.
	self *Proc

	// handoff is newHandoff; the differential tests swap in newChanHandoff.
	handoff func(body func(yield func())) (resume func())

	fired, cancelled, handoffs, elided, inPlace, direct, spills uint64

	// small is the queue NewEngine starts q on, until spill.
	small smallSet
}

// Stats is the engine's own work, counted since it was built. Fired,
// Cancelled and Handoffs are the schedule's: the same simulation gives the
// same counts on any queue and any handoff, whether or not a wake-up was
// elided (an elided one counts in Fired and in Handoffs as the event and the
// round trip it stood for; one taken in place counts in both as well).
// Elided, InPlace, Direct, Cascades, EarlyInserts and Spills are the queue's
// work on that schedule, as deterministic as it is: how much of it never
// reached the queue, how much a blocked process fired itself, how many of
// the switches left a blocked process made rather than the engine, and what
// the queue did with the rest. The small set's and the heap's exact bound
// elides more than the wheel's coarse one, and neither cascades: Cascades
// and EarlyInserts count only on an engine that spilled onto the wheel.
type Stats struct {
	Fired        uint64 // events of the schedule that came due: dispatched, or elided
	Cancelled    uint64 // pending events removed by Cancel
	Handoffs     uint64 // times a process was woken: engine -> process -> engine round trips, made, elided or taken in place
	LiveProcs    int    // processes created and not yet finished
	Elided       uint64 // wake-ups that were the next event, so the process kept running: no event, no switch
	InPlace      uint64 // wake-ups a blocked process fired from its own loop: an event, no switch
	Direct       uint64 // of the wake-ups that did switch, those a blocked process resumed from its own loop, not the engine
	Cascades     uint64 // events moved to a lower wheel level as the clock neared them
	EarlyInserts uint64 // events scheduled below the wheel's floor (after a RunUntil peeked ahead)
	Spills       uint64 // times the schedule outgrew the small set and moved onto the wheel: 0 or 1
}

// Stats reports the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{Fired: e.fired, Cancelled: e.cancelled, Handoffs: e.handoffs, LiveProcs: e.procs,
		Elided: e.elided, InPlace: e.inPlace, Direct: e.direct, Spills: e.spills}
	if w, ok := e.q.(*wheel); ok {
		s.Cascades, s.EarlyInserts = w.cascaded, w.earlyInserts
	}
	return s
}

// NewEngine returns an empty engine at virtual time zero, scheduling
// against its small set until the schedule outgrows it.
func NewEngine() *Engine {
	e := &Engine{handoff: newHandoff}
	e.small.eng = e
	e.q = &e.small
	return e
}

// spill moves the full small set and ev onto a fresh timing wheel, which
// the engine schedules against from then on. floor is the clock, no later
// than anything queued; the set's events are placed in (at, seq) order, so
// equal-time ones keep their order within their slot.
func (e *Engine) spill(ev *Event) {
	s := &e.small
	w := &wheel{floor: min(s.evs[0].at, e.now), count: s.n}
	for _, p := range s.evs[:s.n] {
		w.place(p)
	}
	e.q = w
	e.spills++
	w.Insert(ev)
}

// newEngineWithQueue returns an empty engine scheduling against q, so the
// tests can run one workload over both queue implementations.
func newEngineWithQueue(q EventQueue) *Engine {
	return &Engine{q: q, handoff: newHandoff}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an event from the freelist (or mints one) and stamps it.
func (e *Engine) alloc(t Time) *Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	return ev
}

// recycle retires a fired or cancelled event to the freelist. The
// generation bump invalidates every Timer still pointing at it.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
}

func (e *Engine) checkAt(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%d < %d)", t, e.now))
	}
}

// ScheduleAt registers fn to run at virtual time t, which must not be in
// the past. It returns a Timer so the caller may cancel it.
func (e *Engine) ScheduleAt(t Time, fn func()) Timer {
	e.checkAt(t)
	ev := e.alloc(t)
	ev.fn = fn
	e.q.Insert(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// ScheduleArgAt is ScheduleAt for a callback taking one argument. Hot
// paths use it with a long-lived bound function so that scheduling a
// per-packet continuation does not build a per-packet closure.
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) Timer {
	e.checkAt(t)
	ev := e.alloc(t)
	ev.afn = fn
	ev.arg = arg
	e.q.Insert(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Schedule registers fn to run after virtual duration d (d >= 0).
func (e *Engine) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.ScheduleAt(e.now+d, fn)
}

// ScheduleArg is Schedule for an argument-carrying callback.
func (e *Engine) ScheduleArg(d Time, fn func(any), arg any) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.ScheduleArgAt(e.now+d, fn, arg)
}

// Cancel removes a pending event. Cancelling the zero Timer, or a Timer
// whose event already fired or was already cancelled, is a no-op — even
// if the underlying Event has since been recycled for another callback.
func (e *Engine) Cancel(t Timer) {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return
	}
	e.q.Remove(ev)
	e.recycle(ev)
	e.cancelled++
}

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return e.q.Len() }

// Stop makes the innermost Run/RunUntil return after the currently
// executing event completes. Called outside any run, the stop is
// *pending*: the next Run or RunUntil consumes it and returns before
// firing a single event (a stop requested between runs must not be
// silently lost — a driver loop that stops its engine and then calls
// RunFor again expects the stop to win).
func (e *Engine) Stop() { e.stopped = true }

// fire dispatches ev, which the caller has just popped.
func (e *Engine) fire(ev *Event) {
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.fired++
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	// Recycle before firing: a self-rescheduling callback immediately
	// reuses this Event, keeping the steady-state freelist depth at the
	// schedule's natural concurrency.
	e.recycle(ev)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	if e.panicV != nil {
		v := e.panicV
		e.panicV = nil
		panic(v)
	}
}

// drive fires the events due in the run in progress, in order, until none
// is: the queue is empty, the next event is past the run's limit, or Stop
// is pending. Engine.run calls it with self nil. A blocked process calls it
// with itself, on its own goroutine (Proc.runInPlace), and it reports true
// once it has fired self's own wake-up. Either way it also stops, leaving
// the queue as it is, at the wake-up of another process on the resume
// stack: one that is driving the loop further up, suspended in a fire that
// resumed the process below it, and that has to be returned to, not
// resumed. Any other process's wake-up is fired here, and Proc.run resumes
// that process nested on the current goroutine. No process is on the stack
// while the engine's goroutine drives, so with self nil the stop never
// applies.
func (e *Engine) drive(self *Proc) (woken bool) {
	for !e.stopped {
		ev := e.q.PeekMin()
		if ev == nil || ev.at > e.limit {
			break
		}
		if p, _ := ev.arg.(*Proc); p != nil && p.onStack && p != self {
			break
		}
		e.q.Pop(ev)
		e.fire(ev)
		if e.self != self {
			return true
		}
	}
	return false
}

// run fires events with timestamps <= limit until none is left or Stop is
// called, and reports which. The stop is consumed either way.
func (e *Engine) run(limit Time) (stopped bool) {
	e.limit = limit
	e.drive(nil)
	stopped = e.stopped
	e.stopped = false
	return stopped
}

// Run fires events until the queue is empty or Stop is called. If a process
// panicked, Run re-panics with the same value. A Stop pending from before
// the call makes Run return immediately, firing nothing; either way the
// stop is consumed, so a subsequent Run proceeds normally.
func (e *Engine) Run() { e.run(maxTime) }

// RunUntil fires events with timestamps <= t. If the run completes without
// being stopped, the clock is then advanced to t (if the simulation had not
// already passed it). When Stop fires mid-run — or was pending from before
// the call — the clock stays at the last fired event: advancing it to t
// would strand still-pending events in the past, making the next Run panic
// with "time went backwards". The stop is consumed either way.
func (e *Engine) RunUntil(t Time) {
	if !e.run(t) && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d cycles of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
