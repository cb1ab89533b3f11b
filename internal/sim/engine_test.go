package sim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("events at equal time fired out of order: got[%d]=%d", i, got[i])
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %d after cancelled event", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Schedule(10, func() {
		at = append(at, e.Now())
		e.Schedule(5, func() { at = append(at, e.Now()) })
	})
	e.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Fatalf("nested times = %v, want [10 15]", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 15, 25} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(15)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("Now = %d, want 15", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after Run, want 3 events", fired)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunFor(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt Run)", count)
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d after second Run, want 2", count)
	}
}

func TestStopDuringRunUntilThenRun(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Stop()
	})
	e.Schedule(20, func() { fired = append(fired, e.Now()) })
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Fatalf("Now = %d after stopped RunUntil, want 10 (clock must not jump past pending events)", e.Now())
	}
	// Regression: this used to panic "time went backwards" because the
	// stopped RunUntil had advanced the clock to 100 past the event at 20.
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
}

func TestStopBeforeRunHonored(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(5, func() { count++ })
	e.Stop()
	e.Run()
	if count != 0 {
		t.Fatalf("count = %d, want 0 (pre-run Stop must be honored)", count)
	}
	e.Run() // the stop was consumed; this run proceeds
	if count != 1 {
		t.Fatalf("count = %d after second Run, want 1", count)
	}

	e.Schedule(5, func() { count++ }) // fires at 10
	e.Stop()
	e.RunUntil(50)
	if count != 1 || e.Now() != 5 {
		t.Fatalf("count=%d Now=%d, want count=1 Now=5 (pre-run Stop must halt RunUntil without advancing the clock)", count, e.Now())
	}
	e.RunUntil(50)
	if count != 2 || e.Now() != 50 {
		t.Fatalf("count=%d Now=%d after second RunUntil, want count=2 Now=50", count, e.Now())
	}
}

func TestRunUntilEmptyQueueClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(40)
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40 (RunUntil on an empty queue advances the idle clock)", e.Now())
	}
	e.RunUntil(10)
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40 (RunUntil never moves the clock backwards)", e.Now())
	}
	e.Stop()
	e.RunUntil(90)
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40 (a pending Stop suppresses even the idle-clock advance)", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Go("sleeper", func(p *Proc) {
		trace = append(trace, p.eng.Now())
		p.Sleep(100)
		trace = append(trace, p.eng.Now())
		p.Sleep(50)
		trace = append(trace, p.eng.Now())
	})
	e.Run()
	want := []Time{0, 100, 150}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcParkUnpark(t *testing.T) {
	e := NewEngine()
	var wokeAt Time = -1
	p := e.Go("waiter", func(p *Proc) {
		p.Park()
		wokeAt = p.eng.Now()
	})
	e.Schedule(500, func() { p.Unpark() })
	e.Run()
	if wokeAt != 500 {
		t.Fatalf("woke at %d, want 500", wokeAt)
	}
}

func TestProcParkTimeout(t *testing.T) {
	e := NewEngine()
	var woken, timedOut bool
	e.Go("a", func(p *Proc) {
		woken = p.ParkTimeout(100)
	})
	var q *Proc
	q = e.Go("b", func(p *Proc) {
		timedOut = !p.ParkTimeout(100)
	})
	_ = q
	p2 := e.Go("waker", func(p *Proc) { p.Sleep(200) })
	_ = p2
	e.Run()
	if woken {
		t.Fatal("ParkTimeout reported wakeup without Unpark")
	}
	if !timedOut {
		t.Fatal("ParkTimeout did not time out")
	}
}

func TestProcParkTimeoutWoken(t *testing.T) {
	e := NewEngine()
	var ok bool
	var at Time
	p := e.Go("w", func(p *Proc) {
		ok = p.ParkTimeout(1000)
		at = p.eng.Now()
	})
	e.Schedule(10, func() { p.Unpark() })
	e.Run()
	if !ok || at != 10 {
		t.Fatalf("ok=%v at=%d, want true at 10", ok, at)
	}
	if e.Pending() != 0 {
		t.Fatalf("timeout event not cancelled: %d pending", e.Pending())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				p.Sleep(10)
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				p.Sleep(10)
			}
		})
		e.Run()
		return trace
	}
	first := run()
	for i := 0; i < 20; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic trace length")
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("nondeterministic trace: run %d pos %d: %q vs %q", i, j, again[j], first[j])
			}
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("process panic did not propagate to Run")
		}
	}()
	e.Run()
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func() {})
		e.Run()
	}
}

// TestCancelAfterClose: Close recycles what it drains, so a Timer taken
// before it is stale afterwards and cancelling it — from a deferred
// cleanup, or a facade user after World.Close — touches nothing.
func TestCancelAfterClose(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(100, func() {})
	e.Schedule(100, func() {})
	e.Close()
	e.Cancel(first)
	if n, c := e.Pending(), e.Stats().Cancelled; n != 0 || c != 0 {
		t.Fatalf("after Close and a late Cancel: %d pending, %d cancelled, want 0 and 0", n, c)
	}
	fired := false
	e.Schedule(1, func() { fired = true })
	if n := e.Pending(); n != 1 {
		t.Fatalf("%d pending after one Schedule, want 1", n)
	}
	e.Run()
	if !fired {
		t.Fatal("the event scheduled after Close did not fire")
	}
}
