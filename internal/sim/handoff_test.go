package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// handoffs are the two implementations of the engine<->process switch; on a
// toolchain before go1.23 both rows are the channel one.
var handoffs = []struct {
	name string
	fn   func(body func(yield func())) (resume func())
}{
	{"coroutine", newHandoff},
	{"channel", newChanHandoff},
}

var queues = []struct {
	name string
	fn   func() EventQueue
}{
	{"wheel", func() EventQueue { return new(wheel) }},
	{"heap", newHeapQueue},
}

// handoffScenario runs one scripted world on e: every blocking call a
// process can make, woken every way it can be woken, ending in a process
// panic that leaves one process in each state Close has to end. It appends
// to trace (one "virtual-time process step" line per step; the processes
// keep the pointer, so what they do under Close lands there too) and
// returns the clock when Run unwound, the engine's counters and the value
// Run panicked with.
func handoffScenario(e *Engine, trace *strings.Builder) (end Time, st Stats, panicked any) {
	step := func(who, what string) {
		fmt.Fprintf(trace, "%d %s %s\n", e.Now(), who, what)
	}

	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			step("sleeper", "tick")
			p.Sleep(7)
		}
		step("sleeper", "done")
	})

	// Parked twice: woken from event context, then from process context.
	waiter := e.Go("waiter", func(p *Proc) {
		p.Park()
		step("waiter", "woken by event")
		p.Park()
		step("waiter", "woken by process")
	})
	e.Schedule(20, func() {
		step("event", "unpark waiter")
		waiter.Unpark()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(33)
		step("waker", "unpark waiter")
		waiter.Unpark()
		p.Sleep(1)
		step("waker", "done")
	})

	// ParkTimeout ending both ways, then twice with the unpark and the
	// timeout due at the same instant: the one scheduled first wins.
	var tmo *Proc
	unparkAt := func(at Time) {
		e.ScheduleAt(at, func() {
			if tmo.Parked() {
				step("event", "unpark timeouts")
				tmo.Unpark()
			} else {
				step("event", "timeouts already awake")
			}
		})
	}
	tmo = e.Go("timeouts", func(p *Proc) {
		step("timeouts", fmt.Sprint("plain timeout: ", p.ParkTimeout(10)))
		unparkAt(p.Now() + 4)
		step("timeouts", fmt.Sprint("unparked early: ", p.ParkTimeout(100)))
		unparkAt(p.Now() + 15) // scheduled before the timer: unpark first
		step("timeouts", fmt.Sprint("tie, unpark first: ", p.ParkTimeout(15)))
		e.Schedule(0, func() { unparkAt(e.Now() + 15) }) // fires after ParkTimeout armed its timer
		step("timeouts", fmt.Sprint("tie, timer first: ", p.ParkTimeout(15)))
		p.Sleep(1)
		step("timeouts", "done")
	})

	e.Go("spawner", func(p *Proc) {
		p.Sleep(5)
		step("spawner", "spawn")
		e.Go("child", func(c *Proc) {
			step("child", "start")
			c.Sleep(6)
			step("child", "done")
		})
		p.Sleep(2)
		step("spawner", "done")
	})

	// Finished at 3; woken at 50 both ways a stale wake-up can arrive.
	early := e.Go("early", func(p *Proc) {
		p.Sleep(3)
		step("early", "done")
	})
	e.Schedule(50, func() {
		step("event", "late wake-ups")
		early.Unpark()
		e.ScheduleArg(0, procRun, early)
	})

	e.Go("forever", func(p *Proc) {
		step("forever", "park")
		p.Park()
		step("forever", "unreachable")
	})

	// Still suspended when Run unwinds at 60, one per blocking call; their
	// deferred calls run only if Close unwinds them.
	e.Go("napper", func(p *Proc) {
		defer step("napper", "first defer, runs last")
		defer step("napper", "second defer, runs first")
		p.Sleep(1000)
		step("napper", "unreachable")
	})
	e.Go("patient", func(p *Proc) {
		defer step("patient", "defer")
		step("patient", fmt.Sprint("unreachable: ", p.ParkTimeout(1000)))
	})
	e.Go("stubborn", func(p *Proc) {
		defer step("stubborn", "outer defer")
		defer func() {
			step("stubborn", "defer blocks again")
			p.Sleep(5)
			step("stubborn", "unreachable")
		}()
		p.Park()
		step("stubborn", "unreachable")
	})

	e.Go("bad", func(p *Proc) {
		p.Sleep(60)
		e.Go("unstarted", func(p *Proc) { step("unstarted", "unreachable") })
		step("bad", "boom")
		panic("boom")
	})

	func() {
		defer func() { panicked = recover() }()
		e.Run()
	}()
	return e.Now(), e.Stats(), panicked
}

// settleGoroutines waits for goroutines that are on their way out — a
// finished test's runner, a channel handoff's after its last send — until
// no more than want are left or it is clear they are staying.
func settleGoroutines(want int) int {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	return runtime.NumGoroutine()
}

// TestHandoffDifferential runs the scenario, then Engine.Close, over
// {coroutine, channel} x {wheel, heap} x {elide, never elide}: the trace,
// the final clock and the schedule-determined counters must not depend on
// any of the three, and Close must end every process the scenario left
// behind — parked forever, in Sleep, in ParkTimeout, never started, blocking
// again in a deferred call — along with its goroutine.
func TestHandoffDifferential(t *testing.T) {
	type result struct {
		trace string
		end   Time
		st    Stats
	}
	type axes struct {
		handoff, queue string
		neverElide     bool
	}
	var want result
	var first axes
	for _, h := range handoffs {
		for _, q := range queues {
			for _, neverElide := range []bool{false, true} {
				leg := axes{h.name, q.name, neverElide}
				goroutines := runtime.NumGoroutine() // earlier tests leave some parked for good
				e := newEngineWithQueue(q.fn())
				e.handoff = h.fn
				e.neverElide = neverElide
				var log strings.Builder
				end, st, panicked := handoffScenario(e, &log)

				e.Close()
				if closed := e.Stats(); closed.LiveProcs != 0 || e.Pending() != 0 || e.panicV != nil ||
					closed.Fired != st.Fired || closed.Handoffs != st.Handoffs || closed.Elided != st.Elided {
					t.Errorf("%+v: after Close %+v, %d pending, panic %v; at the end of Run %+v",
						leg, closed, e.Pending(), e.panicV, st)
				}
				if n := settleGoroutines(goroutines); n > goroutines {
					t.Errorf("%+v: %d goroutines after Close, %d before the engine was built", leg, n, goroutines)
				}
				e.Close() // nothing left to end
				trace := log.String()

				err, ok := panicked.(error)
				if !ok {
					t.Fatalf("%+v: Run panicked with %v, want the process's error", leg, panicked)
				}
				for _, sub := range []string{`process "bad" panicked: boom`, "handoffScenario", "handoff_test.go"} {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("%+v: panic %q lacks %q", leg, err, sub)
					}
				}

				// Elided is the queue's own (the heap's bound is exact, the
				// wheel's is not), as Cascades and EarlyInserts are the wheel's.
				if (st.Elided == 0) != neverElide {
					t.Errorf("%+v: %d wake-ups elided", leg, st.Elided)
				}
				st.Elided, st.Cascades, st.EarlyInserts = 0, 0, 0
				got := result{trace, end, st}
				if want.trace == "" {
					want, first = got, leg
					continue
				}
				if got != want {
					t.Errorf("%+v differs from %+v:\nclock %d, %+v\n%s\nwant clock %d, %+v\n%s",
						leg, first, got.end, got.st, got.trace, want.end, want.st, want.trace)
				}
			}
		}
	}

	// The scenario itself: it reached every case it was written for.
	if want.st.Handoffs == 0 || want.st.Cancelled == 0 || want.st.LiveProcs != 5 {
		t.Errorf("scenario stats %+v", want.st)
	}
	for _, step := range []string{
		"10 timeouts plain timeout: false",
		"14 timeouts unparked early: true",
		"29 timeouts tie, unpark first: true",
		"44 timeouts tie, timer first: false",
		"44 event timeouts already awake",
		"5 child start",
		"33 waiter woken by process",
		"50 event late wake-ups",
		"60 bad boom",
		// Close, newest process first; each body's deferred calls in LIFO order.
		"60 bad boom\n" +
			"60 stubborn defer blocks again\n60 stubborn outer defer\n" +
			"60 patient defer\n" +
			"60 napper second defer, runs first\n60 napper first defer, runs last",
	} {
		if !strings.Contains("\n"+want.trace, "\n"+step+"\n") {
			t.Errorf("trace lacks %q:\n%s", step, want.trace)
		}
	}
	if strings.Contains(want.trace, "unreachable") {
		t.Errorf("a process ran on past the point Close ended it at:\n%s", want.trace)
	}
}

// TestHandoffCloseSurfacesPanic: only Close's own sentinel is swallowed. A
// deferred call that panics while its process is being unwound fails Close
// the way a process panic fails Run.
func TestHandoffCloseSurfacesPanic(t *testing.T) {
	for _, h := range handoffs {
		e := NewEngine()
		e.handoff = h.fn
		e.Go("fragile", func(p *Proc) {
			defer func() { panic("broke while unwinding") }()
			p.Park()
		})
		e.Run()
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, `process "fragile" panicked: broke while unwinding`) {
					t.Errorf("%s: Close panicked with %q", h.name, msg)
				}
			}()
			e.Close()
		}()
		if live := e.Stats().LiveProcs; live != 0 {
			t.Errorf("%s: %d live processes after the failed Close", h.name, live)
		}
	}
}

// TestHandoffUnparkNonParkedPanics pins the lost-wakeup check on both
// handoffs, from event context (the panic is Run's own) and from process
// context (it comes back through the process-panic path).
func TestHandoffUnparkNonParkedPanics(t *testing.T) {
	for _, h := range handoffs {
		for _, fromProc := range []bool{false, true} {
			e := NewEngine()
			e.handoff = h.fn
			sleeper := e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
			if fromProc {
				e.Go("waker", func(p *Proc) { sleeper.Unpark() })
			} else {
				e.Schedule(1, func() { sleeper.Unpark() })
			}
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, `Unpark of non-parked process "sleeper"`) {
						t.Errorf("%s fromProc=%v: Run panicked with %q", h.name, fromProc, msg)
					}
				}()
				e.Run()
			}()
		}
	}
}

// TestEngineStats checks the counters against a schedule small enough to
// count by hand.
func TestEngineStats(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Cancel(e.Schedule(2, func() {}))
	e.Go("p", func(p *Proc) { p.Sleep(5); p.Sleep(5) }) // start + two wake-ups, the second with nothing else queued
	e.Go("parked", func(p *Proc) { p.Park() })
	e.Run()
	want := Stats{Fired: 5, Cancelled: 1, Handoffs: 4, LiveProcs: 1, Elided: 1}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}
