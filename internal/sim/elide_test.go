package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestElideEdges walks the borders of Proc.elide, one world per row, each
// row over every engine construction (queues) and with the elision on and
// off: the trace (what ran, at what virtual time, and where the driver's
// runs returned) must be the row's in all of them, and with the elision on
// the row elides exactly what it says — on the heap and on the small set
// (no row spills), whose bounds are exact; the wheel may elide less, never
// more. Each of the four guards has a row that fails without it.
func TestElideEdges(t *testing.T) {
	for _, row := range []struct {
		name   string
		drive  func(w edgeWorld)
		trace  string
		elided uint64
		early  uint64 // the wheel's EarlyInserts
	}{
		{
			// Strictness: an event at the wake-up's own instant was scheduled
			// first and fires first. The second sleep has nothing at its
			// instant and is elided.
			name: "a callback due at the same instant runs first",
			drive: func(w edgeWorld) {
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
			drive: func(w edgeWorld) {
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
			drive: func(w edgeWorld) {
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
			drive: func(w edgeWorld) {
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
			drive: func(w edgeWorld) {
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
			drive: func(w edgeWorld) {
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
				e := q.engine()
				e.neverElide = neverElide
				var trace []string
				row.drive(edgeWorld{e, func(what string) { trace = append(trace, fmt.Sprint(what, "@", e.Now())) }})
				if got := strings.Join(trace, " "); got != row.trace {
					t.Errorf("%s (%s, never elide %v):\n got %s\nwant %s", row.name, q.name, neverElide, got, row.trace)
				}
				st := e.Stats()
				switch {
				case neverElide && st.Elided != 0,
					!neverElide && q.name != "wheel" && st.Elided != row.elided,
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

// edgeWorld is what an edge row's world is driven through: the engine, and
// note, which appends "what@now" to the row's trace.
type edgeWorld struct {
	e    *Engine
	note func(what string)
}

// edgeRow is one world of TestInPlaceEdges or TestDirectHandoffEdges: the
// trace it leaves, its Fired and Handoffs, and with the fast paths on the
// wake-ups it takes in place and the switches a blocked process makes.
type edgeRow struct {
	name                             string
	drive                            func(w edgeWorld)
	trace                            string
	fired, handoffs, inPlace, direct uint64
}

// runEdgeRows runs each row over every queue with the fast paths on and
// off: the trace, Fired and Handoffs must be the row's in all legs, InPlace
// and Direct the row's with the fast paths on and 0 with them off.
func runEdgeRows(t *testing.T, rows []edgeRow) {
	for _, row := range rows {
		for _, q := range queues {
			for _, neverElide := range []bool{false, true} {
				e := q.engine()
				e.neverElide = neverElide
				var trace []string
				row.drive(edgeWorld{e, func(what string) { trace = append(trace, fmt.Sprint(what, "@", e.Now())) }})
				if got := strings.Join(trace, " "); got != row.trace {
					t.Errorf("%s (%s, never elide %v):\n got %s\nwant %s", row.name, q.name, neverElide, got, row.trace)
				}
				inPlace, direct := row.inPlace, row.direct
				if neverElide {
					inPlace, direct = 0, 0
				}
				if st := e.Stats(); st.Fired != row.fired || st.Handoffs != row.handoffs || st.InPlace != inPlace || st.Direct != direct {
					t.Errorf("%s (%s, never elide %v): fired %d, handoffs %d, in place %d, direct %d; want %d, %d, %d, %d",
						row.name, q.name, neverElide, st.Fired, st.Handoffs, st.InPlace, st.Direct,
						row.fired, row.handoffs, inPlace, direct)
				}
				e.Close()
			}
		}
	}
}

// catchPanic runs run and returns what it panicked with, or nil.
func catchPanic(run func()) (v any) {
	defer func() { v = recover() }()
	run()
	return nil
}

// TestInPlaceEdges walks the borders of the loop a blocked process runs
// itself (Proc.runInPlace), one world per row (runEdgeRows); a trace holds
// what ran at what virtual time, where the driver's runs returned and what
// they panicked with.
func TestInPlaceEdges(t *testing.T) {
	runEdgeRows(t, []edgeRow{
		{
			// The common case: the callback ahead of the wake-up is fired
			// from the process's stack, then the wake-up, with no switch.
			name: "a callback ahead of the process's own wake-up",
			drive: func(w edgeWorld) {
				w.e.Go("p", func(p *Proc) {
					w.e.Schedule(2, func() { w.note("callback") })
					p.Sleep(5)
					w.note("woke")
				})
				w.e.Run()
			},
			trace: "callback@2 woke@5", fired: 3, handoffs: 2, inPlace: 1,
		},
		{
			// Raised by the fire that resumed the process, with the
			// callback's own value, not as the process's panic; the process
			// stays suspended until Close unwinds it.
			name: "a callback fired in place panics",
			drive: func(w edgeWorld) {
				w.e.Go("p", func(p *Proc) {
					defer w.note("p unwound")
					w.e.Schedule(1, func() { panic("callback boom") })
					p.Sleep(5)
					w.note("unreachable")
				})
				w.note(fmt.Sprint("run panicked: ", catchPanic(w.e.Run)))
				w.note(fmt.Sprint("live ", w.e.Stats().LiveProcs))
				w.e.Close()
			},
			trace: "run panicked: callback boom@1 live 1@1 p unwound@1", fired: 2, handoffs: 1,
		},
		{
			name: "Stop from a callback fired in place",
			drive: func(w edgeWorld) {
				w.e.Go("p", func(p *Proc) {
					w.e.Schedule(1, func() { w.note("stop"); w.e.Stop() })
					w.e.Schedule(2, func() { w.note("next") })
					p.Sleep(5)
					w.note("woke")
				})
				w.e.Run()
				w.note(fmt.Sprint("returned, pending ", w.e.Pending()))
				w.e.Run()
				w.note("returned")
			},
			trace: "stop@1 returned, pending 2@1 next@2 woke@5 returned@5", fired: 4, handoffs: 2,
		},
		{
			name: "RunUntil's limit reached inside the loop",
			drive: func(w edgeWorld) {
				w.e.Go("p", func(p *Proc) {
					w.e.Schedule(3, func() { w.note("early") })
					w.e.Schedule(20, func() { w.note("late") })
					p.Sleep(30)
					w.note("woke")
				})
				w.e.RunUntil(10)
				w.note(fmt.Sprint("returned, pending ", w.e.Pending()))
				w.e.Run()
			},
			trace: "early@3 returned, pending 2@10 late@20 woke@30", fired: 4, handoffs: 2,
		},
		{
			// The Unpark, scheduled first, wins the tie; the expiry behind
			// it is stale: fired in place, counted in Fired, no handoff.
			name: "a stale ParkTimeout expiry",
			drive: func(w edgeWorld) {
				w.e.Go("p", func(p *Proc) {
					w.e.Schedule(5, func() { w.note("unpark"); p.Unpark() })
					w.note(fmt.Sprint("unparked: ", p.ParkTimeout(5)))
				})
				w.e.Run()
			},
			trace: "unpark@5 unparked: true@5", fired: 4, handoffs: 2, inPlace: 1,
		},
		{
			name: "Unpark of a sleeping process from a callback fired in place",
			drive: func(w edgeWorld) {
				var sleeper *Proc
				sleeper = w.e.Go("sleeper", func(p *Proc) {
					w.e.Schedule(1, func() { sleeper.Unpark() })
					p.Sleep(10)
				})
				w.note(fmt.Sprint("run panicked: ", catchPanic(w.e.Run)))
				w.e.Close()
			},
			trace: `run panicked: sim: Unpark of non-parked process "sleeper"@1`, fired: 2, handoffs: 1,
		},
	})
}

// TestDirectHandoffEdges walks the borders of the resume stack: a blocked
// process that meets another's wake-up resumes it from its own loop
// (Engine.drive, Proc.run), and that one, blocking in turn, drives until it
// meets the wake-up of a process further up the stack and yields back one
// level. One world per row (runEdgeRows).
func TestDirectHandoffEdges(t *testing.T) {
	runEdgeRows(t, []edgeRow{
		{
			// A, blocked, starts B; B, blocked, starts C; C meets A's
			// wake-up and yields to B, whose loop meets it too and yields
			// to A, which takes it in place. A, blocked again, resumes B
			// and C for their wake-ups and takes its own in place.
			name: "a chain of three unwinds to the first",
			drive: func(w edgeWorld) {
				w.e.Go("A", func(p *Proc) {
					p.Sleep(10)
					w.note("A woke")
					p.Sleep(100)
					w.note("A woke")
				})
				w.e.Go("B", func(p *Proc) {
					p.Sleep(20)
					w.note("B woke")
				})
				w.e.Go("C", func(p *Proc) {
					p.Sleep(30)
					w.note("C woke")
				})
				w.e.Run()
				w.note(fmt.Sprint("returned, live ", w.e.Stats().LiveProcs))
			},
			trace: "A woke@10 B woke@20 C woke@30 A woke@110 returned, live 0@110",
			fired: 7, handoffs: 7, inPlace: 2, direct: 4,
		},
		{
			// B's panic comes back through A's loop as B's, not as a
			// callback panic of A's: Run panics with B's own error, and A
			// stays suspended until Close.
			name: "a panic in a body resumed by another process",
			drive: func(w edgeWorld) {
				w.e.Go("A", func(p *Proc) {
					defer w.note("A unwound")
					p.Sleep(10)
					w.note("unreachable")
				})
				w.e.Go("B", func(p *Proc) { panic("boom") })
				msg, _, _ := strings.Cut(fmt.Sprint(catchPanic(w.e.Run)), "\n")
				w.note("run panicked: " + msg)
				w.note(fmt.Sprint("live ", w.e.Stats().LiveProcs))
				w.e.Close()
			},
			trace: `run panicked: sim: process "B" panicked: boom@0 live 1@0 A unwound@0`,
			fired: 2, handoffs: 2, direct: 1,
		},
		{
			// Every loop on the stack sees the Stop and yields, B to A and
			// A to the engine, which consumes it; the next Run resumes both.
			name: "Stop from a process resumed by another",
			drive: func(w edgeWorld) {
				w.e.Go("A", func(p *Proc) {
					p.Sleep(10)
					w.note("A woke")
				})
				w.e.Go("B", func(p *Proc) {
					w.e.Stop()
					w.note("B stopped")
					p.Sleep(5)
					w.note("B woke")
				})
				w.e.Run()
				w.note(fmt.Sprint("returned, pending ", w.e.Pending()))
				w.e.Run()
				w.note("returned")
			},
			trace: "B stopped@0 returned, pending 2@0 B woke@5 A woke@10 returned@10",
			fired: 4, handoffs: 4, direct: 1,
		},
		{
			// B's loop fires the callback and stops at the limit; so does
			// A's below it. The next run picks the chain up again.
			name: "RunUntil's limit reached inside a chain",
			drive: func(w edgeWorld) {
				w.e.Go("A", func(p *Proc) {
					p.Sleep(10)
					w.note("A woke")
					p.Sleep(20)
					w.note("A woke")
				})
				w.e.Go("B", func(p *Proc) {
					w.e.Schedule(3, func() { w.note("callback") })
					p.Sleep(20)
					w.note("B woke")
				})
				w.e.RunUntil(5)
				w.note(fmt.Sprint("returned, pending ", w.e.Pending()))
				w.e.Run()
			},
			trace: "callback@3 returned, pending 2@5 A woke@10 B woke@20 A woke@30",
			fired: 6, handoffs: 5, inPlace: 1, direct: 2,
		},
		{
			// A chain of three left suspended by the limit, each process
			// but the first resumed by the one before it: Close ends them
			// all, newest first, from outside any run.
			name: "Close with a suspended chain",
			drive: func(w edgeWorld) {
				for _, name := range []string{"A", "B", "C"} {
					w.e.Go(name, func(p *Proc) {
						defer w.note(name + " unwound")
						p.Sleep(100)
						w.note("unreachable")
					})
				}
				w.e.RunUntil(50)
				w.e.Close()
				w.note(fmt.Sprint("closed, live ", w.e.Stats().LiveProcs, ", pending ", w.e.Pending()))
			},
			trace: "C unwound@50 B unwound@50 A unwound@50 closed, live 0, pending 0@50",
			fired: 3, handoffs: 3, direct: 2,
		},
	})
}

// elideSchedule builds a world of two to four processes out of seed — each
// sleeping, parking with and without a timeout, unparking the others,
// scheduling and cancelling plain callbacks (among them callbacks that start
// a process or unpark one), now and then stopping the run — and drives it
// through a few bounded runs and then to quiescence. Every step goes into
// the trace with its virtual time, as does the clock at each return of a
// run. Small delays keep ties and exactly-next wake-ups common.
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
				switch op := rng.next() % 18; {
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
						step("unparked", o.name)
					}
				case op < 16:
					// Firing in place meets process creation.
					e.Schedule(d, func() {
						e.Go(fmt.Sprint("p", i, " child"), func(c *Proc) {
							step("child started after", d)
							c.Sleep(d)
							step("child slept", d)
						})
					})
				case op < 17:
					o := procs[rng.next()%uint64(len(procs))]
					e.Schedule(d, func() {
						if o.Parked() {
							o.Unpark()
							step("callback unparked", o.name)
						}
					})
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

// elideMatches runs elideSchedule(seed) on every queue with the fast paths
// (the elided wake-up, the loop a blocked process runs itself) on and off,
// and fails t unless the two run the same simulation event for event — one
// trace, one clock at every return, one Fired/Cancelled/Handoffs. It
// returns the wake-ups elided, taken in place and made in all.
func elideMatches(t *testing.T, seed uint64) (elided, inPlace, handoffs uint64) {
	for _, q := range queues {
		var want string
		var wantSt Stats
		for _, neverElide := range []bool{true, false} {
			e := q.engine()
			e.neverElide = neverElide
			var trace strings.Builder
			elideSchedule(e, seed, &trace)
			st := e.Stats()
			e.Close()
			if neverElide {
				if st.Elided != 0 || st.InPlace != 0 || st.Direct != 0 {
					t.Fatalf("seed %d on the %s: %d wake-ups elided, %d taken in place, %d resumed directly with the fast paths off",
						seed, q.name, st.Elided, st.InPlace, st.Direct)
				}
				want, wantSt = trace.String(), st
				continue
			}
			elided, inPlace, handoffs = elided+st.Elided, inPlace+st.InPlace, handoffs+st.Handoffs
			st.Elided, st.InPlace, st.Direct, st.Cascades, st.EarlyInserts, st.Spills = 0, 0, 0, 0, 0, 0
			wantSt.Cascades, wantSt.EarlyInserts, wantSt.Spills = 0, 0, 0
			if got := trace.String(); got != want || st != wantSt {
				t.Fatalf("seed %d on the %s: the fast paths changed the simulation\n%+v\n%s\nwithout:\n%+v\n%s",
					seed, q.name, st, firstDifference(got, want), wantSt, firstDifference(want, got))
			}
		}
	}
	return elided, inPlace, handoffs
}

// TestElideMatchesNeverElide is the property behind both fast paths: over
// random schedules, on any queue, an engine that elides and fires in
// place and one that queues every wake-up for its own loop run the same
// simulation.
func TestElideMatchesNeverElide(t *testing.T) {
	var elided, inPlace, handoffs uint64
	for seed := uint64(1); seed <= 300; seed++ {
		e, i, h := elideMatches(t, seed)
		elided, inPlace, handoffs = elided+e, inPlace+i, handoffs+h
	}
	// The schedules do reach both fast paths, and do not live on them.
	if elided == 0 || inPlace == 0 || (elided+inPlace)*10 > handoffs*9 {
		t.Errorf("of %d wake-ups over all schedules, %d elided and %d taken in place", handoffs, elided, inPlace)
	}
}

// FuzzElideMatchesNeverElide is TestElideMatchesNeverElide over any seed.
func FuzzElideMatchesNeverElide(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	// And eight more worlds of three or four processes (elideSchedule's
	// first draw), where a process resumed by another can resume a third.
	for seed, n := uint64(5), 0; n < 8; seed++ {
		if rng := splitmix64(seed); 2+rng.next()%3 >= 3 {
			f.Add(seed)
			n++
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64) { elideMatches(t, seed) })
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
