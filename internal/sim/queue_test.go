package sim

import (
	"testing"
)

// splitmix64 gives the tests a deterministic stream without touching any
// global PRNG (the determinism analyzer forbids those in this tree).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4490885eb327
	return z ^ (z >> 31)
}

// TestCalendarMatchesHeap drives the calendar queue and the reference
// heap through an identical randomized schedule — bursty inserts, far
// deadlines, cancellations — and requires identical pop sequences. The
// calendar's resizing and year-window scanning must never reorder
// (at, seq) ties.
//
// The two-host shape is the queue a ping-pong world keeps: never more than
// 32 events, so the calendar stays at its initial 16 one-cycle days, with
// timestamps thousands of cycles apart, so almost every uncached PeekMin
// walks the whole year and ends in the sparse fallback.
func TestCalendarMatchesHeap(t *testing.T) {
	for _, shape := range []struct {
		name      string
		maxLive   int // 0: unbounded
		near, far uint64
		base      Time
	}{
		{name: "bursty", near: 512, far: 1_000_000},
		{name: "two-host", maxLive: 2 * calMinBuckets, near: 8000, far: 200_000, base: 1000},
	} {
		t.Run(shape.name, func(t *testing.T) {
			rng := splitmix64(12345)
			cal := NewCalendarQueue()
			ref := newHeapQueue()
			var calLive, refLive []*Event
			seq := uint64(0)
			floor := Time(0)

			newPair := func(at Time) {
				a := &Event{at: at, seq: seq}
				b := &Event{at: at, seq: seq}
				seq++
				cal.Insert(a)
				ref.Insert(b)
				calLive = append(calLive, a)
				refLive = append(refLive, b)
			}
			popBoth := func() {
				if pa, pb := cal.PeekMin(), ref.PeekMin(); (pa == nil) != (pb == nil) || pa != nil && (pa.at != pb.at || pa.seq != pb.seq) {
					t.Fatalf("peek mismatch: calendar %v, heap %v", pa, pb)
				}
				a, b := cal.PopMin(), ref.PopMin()
				if (a == nil) != (b == nil) {
					t.Fatalf("pop mismatch: calendar %v, heap %v", a, b)
				}
				if a == nil {
					return
				}
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("pop order diverged: calendar (%d,%d) vs heap (%d,%d)", a.at, a.seq, b.at, b.seq)
				}
				if a.at < floor {
					t.Fatalf("calendar popped %d below floor %d", a.at, floor)
				}
				floor = a.at
				for i, ev := range calLive {
					if ev == a {
						calLive = append(calLive[:i], calLive[i+1:]...)
						refLive = append(refLive[:i], refLive[i+1:]...)
						break
					}
				}
			}

			for op := 0; op < 20000; op++ {
				switch r := rng.next(); {
				case r%100 < 55 && (shape.maxLive == 0 || len(calLive)+2 <= shape.maxLive):
					// insert, biased near the floor
					at := floor + shape.base + Time(rng.next()%shape.near)
					if r%1000 < 30 {
						at = floor + Time(rng.next()%shape.far) // far deadline
					}
					newPair(at)
					// Equal-time burst half the time.
					if r%2 == 0 {
						newPair(at)
					}
				case r%100 < 85:
					popBoth()
				default: // cancel a random live event from both queues
					if len(calLive) == 0 {
						continue
					}
					i := int(rng.next() % uint64(len(calLive)))
					cal.Remove(calLive[i])
					ref.Remove(refLive[i])
					calLive = append(calLive[:i], calLive[i+1:]...)
					refLive = append(refLive[:i], refLive[i+1:]...)
				}
				if cal.Len() != ref.Len() {
					t.Fatalf("length diverged: calendar %d vs heap %d", cal.Len(), ref.Len())
				}
			}
			for cal.Len() > 0 {
				popBoth()
			}

			c := cal.(*CalendarQueue)
			if shape.maxLive == 0 {
				if c.resizes == 0 {
					t.Error("the bursty schedule never resized the calendar")
				}
			} else if c.resizes != 0 || c.width != 1 || c.sparseFallbacks < 1000 {
				t.Errorf("two-host shape: resizes=%d width=%d sparse fallbacks=%d, want 0, 1 and most peeks",
					c.resizes, c.width, c.sparseFallbacks)
			}
		})
	}
}

// TestEngineOnHeapQueueEquivalent runs the same simulation on both queue
// implementations and checks the traces match.
func TestEngineOnHeapQueueEquivalent(t *testing.T) {
	run := func(e *Engine) []Time {
		var trace []Time
		rng := splitmix64(7)
		var tick func()
		n := 0
		tick = func() {
			trace = append(trace, e.Now())
			n++
			if n < 500 {
				e.Schedule(Time(rng.next()%97), tick)
				if n%3 == 0 {
					tm := e.Schedule(Time(rng.next()%29), func() { trace = append(trace, -e.Now()) })
					if n%6 == 0 {
						e.Cancel(tm)
					}
				}
			}
		}
		e.Schedule(0, tick)
		e.Run()
		return trace
	}
	a := run(NewEngine())
	b := run(newEngineWithQueue(newHeapQueue()))
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestCancelStaleTimer pins the generation check: once an event fires,
// its recycled Event may carry an unrelated callback, and cancelling the
// old Timer must not touch it.
func TestCancelStaleTimer(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(1, func() {})
	e.Run()
	fired := false
	fresh := e.Schedule(1, func() { fired = true })
	if stale.ev != fresh.ev {
		t.Fatalf("freelist did not recycle the fired event")
	}
	e.Cancel(stale) // refers to the previous life; must be a no-op
	e.Run()
	if !fired {
		t.Fatal("cancelling a stale Timer killed a recycled event")
	}
	e.Cancel(Timer{}) // zero Timer is inert
}

// TestScheduleSteadyStateZeroAlloc pins the tentpole claim: a
// self-rescheduling event at steady queue depth costs zero heap
// allocations per cycle.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		e.Schedule(3, tick)
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), tick)
	}
	e.RunFor(1000) // warm the freelist and settle calendar size
	allocs := testing.AllocsPerRun(100, func() {
		e.RunFor(30)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f/op, want 0", allocs)
	}
}

// TestScheduleArgAvoidsClosure checks the argument-carrying variant
// delivers its argument and interleaves with plain events in seq order.
func TestScheduleArgAvoidsClosure(t *testing.T) {
	e := NewEngine()
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	e.ScheduleArg(5, push, 1)
	e.Schedule(5, func() { got = append(got, 2) })
	e.ScheduleArgAt(5, push, 3)
	tm := e.ScheduleArg(5, push, 99)
	e.Cancel(tm)
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestCalendarSparseFallback exercises the out-of-year scan: a handful
// of events spread across an enormous time range.
func TestCalendarSparseFallback(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1 << 40, 3, 1 << 20, 70, 1 << 30} {
		at := at
		e.ScheduleAt(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{3, 70, 1 << 20, 1 << 30, 1 << 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sparse order = %v, want %v", got, want)
		}
	}
}
