package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestElideEdges walks the borders of Proc.elide, one world per row, each
// row over both queues and with the elision on and off: the trace (what ran,
// at what virtual time, and where the driver's runs returned) must be the
// row's in all four, and with the elision on the row elides exactly what it
// says — on the heap, whose bound is exact; the wheel may elide less, never
// more. Each of the four guards has a row that fails without it.
func TestElideEdges(t *testing.T) {
	type world struct {
		e    *Engine
		note func(what string) // "what@now" into the trace
	}
	for _, row := range []struct {
		name   string
		drive  func(w world)
		trace  string
		elided uint64
		early  uint64 // the wheel's EarlyInserts
	}{
		{
			// Strictness: an event at the wake-up's own instant was scheduled
			// first and fires first. The second sleep has nothing at its
			// instant and is elided.
			name: "a callback due at the same instant runs first",
			drive: func(w world) {
				w.e.Go("p", func(p *Proc) {
					w.e.Schedule(5, func() { w.note("callback") })
					p.Sleep(5)
					w.note("slept")
					p.Sleep(5)
					w.note("slept")
				})
				w.e.Run()
			},
			trace:  "callback@5 slept@5 slept@10",
			elided: 1,
		},
		{
			// The run's limit: a sleep that ends after it is queued, the
			// clock stops at the limit, and the next run resumes the sleeper.
			name: "a sleep that outlasts RunUntil is queued",
			drive: func(w world) {
				w.e.Go("p", func(p *Proc) {
					p.Sleep(30)
					w.note("short")
					p.Sleep(70)
					w.note("long")
				})
				w.e.RunUntil(40)
				w.note(fmt.Sprint("returned, pending ", w.e.Pending()))
				w.e.RunUntil(200)
				w.note("returned")
			},
			trace:  "short@30 returned, pending 1@40 long@100 returned@200",
			elided: 1,
		},
		{
			// A pending Stop: the run must return once this event — the
			// process's time slice — completes, so the process has to yield.
			name: "a process that stopped the run is not advanced",
			drive: func(w world) {
				w.e.Go("p", func(p *Proc) {
					w.e.Stop()
					p.Sleep(10)
					w.note("slept")
				})
				w.e.Run()
				w.note(fmt.Sprint("stopped, pending ", w.e.Pending()))
				w.e.Run()
				w.note("finished")
			},
			trace: "stopped, pending 1@0 slept@10 finished@10",
		},
		{
			// Close: a deferred call that sleeps while its process is being
			// ended unwinds, however idle the world is.
			name: "Close unwinds a deferred sleep",
			drive: func(w world) {
				w.e.Go("p", func(p *Proc) {
					defer w.note("outer defer")
					defer func() {
						w.note("defer sleeps")
						p.Sleep(10)
						w.note("unreachable")
					}()
					p.Sleep(7)
					p.Park()
				})
				w.e.Run()
				w.e.Close()
				w.note(fmt.Sprint("closed, live ", w.e.Stats().LiveProcs))
			},
			trace:  "defer sleeps@7 outer defer@7 closed, live 0@7",
			elided: 1,
		},
		{
			// ParkTimeout: elided, it reports a timeout and was never
			// parked; with an Unpark due at the timeout's own instant —
			// scheduled first — it parks and reports the unpark.
			name: "ParkTimeout alone, and tied with an Unpark",
			drive: func(w world) {
				w.e.Go("p", func(p *Proc) {
					w.note(fmt.Sprint("alone: ", p.ParkTimeout(10), ", parked ", p.Parked()))
					w.e.Schedule(10, func() {
						w.note(fmt.Sprint("unpark, parked ", p.Parked()))
						p.Unpark()
					})
					w.note(fmt.Sprint("tied: ", p.ParkTimeout(10)))
					w.note(fmt.Sprint("now: ", p.ParkTimeout(0)))
				})
				w.e.Run()
			},
			trace:  "alone: false, parked false@10 unpark, parked true@20 tied: true@20 now: false@20",
			elided: 2,
		},
		{
			// The TestPeekAheadThenSchedule shape: each RunUntil peeks at an
			// event past its limit, which moves the wheel's floor beyond the
			// clock; what the driver schedules next lands on the early list,
			// ahead of sleeps elided and queued.
			name: "sleeps after RunUntil peeked past its limit",
			drive: func(w world) {
				w.e.ScheduleAt(1_000_000, func() { w.note("far") })
				w.e.Go("p", func(p *Proc) {
					p.Sleep(150) // past the first limit: queued, and peeked at
					w.note("p")
					p.Sleep(10) // only the far event ahead: elided
					w.note("p")
					w.e.Schedule(5, func() { w.note("c") })
					p.Sleep(5) // tied with c: queued behind it
					w.note("p")
					p.Sleep(1000) // past the second limit
					w.note("p")
				})
				w.e.RunUntil(100)
				w.e.Schedule(20, func() { w.note("b") })
				w.e.Schedule(0, func() { w.note("a") })
				w.e.RunUntil(200)
				w.e.Schedule(0, func() { w.note("d") })
				w.e.Run()
			},
			trace:  "a@100 b@120 p@150 p@160 c@165 p@165 d@200 p@1165 far@1000000",
			elided: 1,
			early:  3, // a, b and d
		},
	} {
		for _, q := range queues {
			for _, neverElide := range []bool{false, true} {
				e := newEngineWithQueue(q.fn())
				e.neverElide = neverElide
				var trace []string
				row.drive(world{e, func(what string) { trace = append(trace, fmt.Sprint(what, "@", e.Now())) }})
				if got := strings.Join(trace, " "); got != row.trace {
					t.Errorf("%s (%s, never elide %v):\n got %s\nwant %s", row.name, q.name, neverElide, got, row.trace)
				}
				st := e.Stats()
				switch {
				case neverElide && st.Elided != 0,
					!neverElide && q.name == "heap" && st.Elided != row.elided,
					!neverElide && st.Elided > row.elided:
					t.Errorf("%s (%s, never elide %v): %d wake-ups elided, the row has %d",
						row.name, q.name, neverElide, st.Elided, row.elided)
				}
				if q.name == "wheel" && st.EarlyInserts != row.early {
					t.Errorf("%s (never elide %v): EarlyInserts = %d, want %d", row.name, neverElide, st.EarlyInserts, row.early)
				}
				e.Close()
			}
		}
	}
}

// TestElideRejectsWhatSchedulingRejects: a wake-up the queue would refuse —
// a negative timeout, a sleep past the end of time — is not one the fast
// path may take; the clock must not move backwards on the way to the panic.
func TestElideRejectsWhatSchedulingRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		block func(p *Proc)
		want  string
	}{
		{"negative timeout", func(p *Proc) { p.ParkTimeout(-3) }, "negative delay"},
		{"overflowing sleep", func(p *Proc) { p.Sleep(maxTime) }, "in the past"},
	} {
		e := NewEngine()
		e.Go("p", func(p *Proc) {
			p.Sleep(10)
			c.block(p)
		})
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("%s: Run panicked with %q, want %q", c.name, msg, c.want)
				}
			}()
			e.Run()
		}()
		if e.Now() != 10 {
			t.Errorf("%s: clock at %d, the process blocked at 10", c.name, e.Now())
		}
	}
}

// elideSchedule builds a world of two to four processes out of seed — each
// sleeping, parking with and without a timeout, unparking the others,
// scheduling and cancelling plain callbacks, now and then stopping the run —
// and drives it through a few bounded runs and then to quiescence. Every
// step goes into the trace with its virtual time, as does the clock at each
// return of a run. Small delays keep ties and exactly-next wake-ups common.
func elideSchedule(e *Engine, seed uint64, trace *strings.Builder) {
	rng := splitmix64(seed)
	procs := make([]*Proc, 2+rng.next()%3)
	var timers []Timer
	for i := range procs {
		i, rng := i, splitmix64(rng.next())
		step := func(what string, v any) { fmt.Fprintf(trace, "%d p%d %s %v\n", e.Now(), i, what, v) }
		procs[i] = e.Go(fmt.Sprint("p", i), func(p *Proc) {
			for n := 0; n < 40; n++ {
				d := Time(rng.next() % 12)
				switch op := rng.next() % 16; {
				case op < 5:
					p.Sleep(d)
					step("slept", d)
				case op < 8:
					step("timeout", fmt.Sprint(d, " unparked ", p.ParkTimeout(d)))
				case op < 10:
					e.Schedule(d, func() {
						if p.Parked() {
							p.Unpark()
						}
					})
					p.Park()
					step("parked until unparked after", d)
				case op < 12:
					timers = append(timers, e.Schedule(d, func() { step("callback after", d) }))
				case op < 13:
					if len(timers) > 0 {
						e.Cancel(timers[rng.next()%uint64(len(timers))]) // often stale: fired, or cancelled already
					}
				case op < 15:
					if o := procs[rng.next()%uint64(len(procs))]; o != nil && o.Parked() {
						o.Unpark()
						step("unparked", o.Name())
					}
				default:
					e.Stop()
					step("stopped the run", "")
				}
			}
			step("done", "")
		})
	}
	for n := 0; n < 6; n++ {
		e.RunFor(Time(rng.next() % 40))
		fmt.Fprintf(trace, "%d run returned, %d pending\n", e.Now(), e.Pending())
	}
	for e.Pending() > 0 { // a Stop ends a Run early
		e.Run()
		fmt.Fprintf(trace, "%d run returned, %d pending\n", e.Now(), e.Pending())
	}
}

// TestElideMatchesNeverElide is the property behind the elision: over
// random schedules, on either queue, an engine that elides and one that
// queues every wake-up run the same simulation event for event — one trace,
// one clock at every return, one Fired/Cancelled/Handoffs.
func TestElideMatchesNeverElide(t *testing.T) {
	var elided, handoffs uint64
	for seed := uint64(1); seed <= 300; seed++ {
		for _, q := range queues {
			var want string
			var wantSt Stats
			for _, neverElide := range []bool{true, false} {
				e := newEngineWithQueue(q.fn())
				e.neverElide = neverElide
				var trace strings.Builder
				elideSchedule(e, seed, &trace)
				st := e.Stats()
				e.Close()
				if neverElide {
					if st.Elided != 0 {
						t.Fatalf("seed %d on the %s: %d wake-ups elided with the elision off", seed, q.name, st.Elided)
					}
					want, wantSt = trace.String(), st
					continue
				}
				elided, handoffs = elided+st.Elided, handoffs+st.Handoffs
				st.Elided, st.Cascades, st.EarlyInserts = 0, 0, 0
				wantSt.Cascades, wantSt.EarlyInserts = 0, 0
				if got := trace.String(); got != want || st != wantSt {
					t.Fatalf("seed %d on the %s: eliding changed the simulation\n%+v\n%s\nwithout:\n%+v\n%s",
						seed, q.name, st, firstDifference(got, want), wantSt, firstDifference(want, got))
				}
			}
		}
	}
	// The schedules do reach the fast path, and do not live on it.
	if elided == 0 || elided*10 > handoffs*9 {
		t.Errorf("%d of %d wake-ups elided over all schedules", elided, handoffs)
	}
}

// firstDifference is the few lines of a around where it first departs from b.
func firstDifference(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	i := 0
	for i < len(la) && i < len(lb) && la[i] == lb[i] {
		i++
	}
	return fmt.Sprintf("(line %d) %s", i+1, strings.Join(la[max(i-3, 0):min(i+3, len(la))], "\n"))
}
