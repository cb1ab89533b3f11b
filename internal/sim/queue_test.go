package sim

import (
	"fmt"
	"math"
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

// queueScript drives a wheel and the reference heap through one schedule
// and requires identical (at, seq) peeks, pops and lengths, and after every
// operation a MinBound from the wheel that is no later than the heap's
// minimum and was free: floor, cascades and length as they were. The
// schedule is
// a string of two-byte operations, so that the shapes below and whatever
// the fuzzer makes of them run through one interpreter:
//
//	op&7   0, 7  insert at now + delta
//	       1     insert twice at now + delta (an equal-time burst)
//	       2     insert at the time of live event arg (equal time, later seq)
//	       3, 6  pop
//	       4     peek
//	       5     cancel live event arg
//	op>>3  delta = arg << 4*(op>>3 & 15): near, far, or the top of int64
//
// now is the time of the last pop, which is as early as the engine may
// schedule; live events are numbered oldest insert first. It returns the
// wheel and the number of inserts made.
func queueScript(t testing.TB, script []byte) (*wheel, uint64) {
	type pair struct{ w, ref *Event }
	q, ref := new(wheel), newHeapQueue()
	var live []pair
	var seq uint64
	now := Time(0)

	insert := func(at Time) {
		p := pair{&Event{at: at, seq: seq}, &Event{at: at, seq: seq}}
		seq++
		q.Insert(p.w)
		ref.Insert(p.ref)
		live = append(live, p)
	}
	same := func(what string, a, b *Event) {
		if (a == nil) != (b == nil) || a != nil && (a.at != b.at || a.seq != b.seq) {
			t.Fatalf("%s diverged: wheel %v, heap %v", what, a, b)
		}
	}
	pop := func() {
		a, b := q.PeekMin(), ref.PeekMin()
		same("peek", a, b)
		if a == nil {
			return
		}
		q.Pop(a)
		ref.Pop(b)
		if a.at < now {
			t.Fatalf("popped %d after %d", a.at, now)
		}
		now = a.at
		for i := range live {
			if live[i].w == a {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}

	for ; len(script) >= 2; script = script[2:] {
		op, arg := script[0], script[1]
		delta := uint64(arg) << (4 * (op >> 3 & 15))
		if delta>>(4*(op>>3&15)) != uint64(arg) || delta > uint64(math.MaxInt64-now) {
			continue // past the end of time
		}
		at := now + Time(delta)
		switch op & 7 {
		case 0, 7:
			insert(at)
		case 1:
			insert(at)
			insert(at)
		case 2:
			if len(live) > 0 {
				insert(live[int(arg)%len(live)].w.at)
			}
		case 3, 6:
			pop()
		case 4:
			same("peek", q.PeekMin(), ref.PeekMin())
		case 5:
			if len(live) > 0 {
				i := int(arg) % len(live)
				q.Remove(live[i].w)
				ref.Remove(live[i].ref)
				live = append(live[:i], live[i+1:]...)
			}
		}
		if q.Len() != ref.Len() {
			t.Fatalf("length diverged: wheel %d, heap %d", q.Len(), ref.Len())
		}
		bound(t, q, ref)
	}
	for q.Len() > 0 {
		pop()
	}
	same("peek of the empty queues", q.PeekMin(), ref.PeekMin())
	return q, seq
}

// bound asks the wheel for its MinBound and checks it against the heap's
// exact one and against the wheel's own state before the call.
func bound(t testing.TB, q *wheel, ref EventQueue) {
	floor, cascaded, peeked, n := q.floor, q.cascaded, q.peeked, q.Len()
	got, exact := q.MinBound(), ref.MinBound()
	if min := ref.PeekMin(); min == nil && exact != maxTime || min != nil && exact != min.at {
		t.Fatalf("heap MinBound %d, its minimum is %v", exact, min)
	}
	if got > exact || n == 0 && got != maxTime {
		t.Fatalf("wheel MinBound %d with %d queued, the earliest at %d", got, n, exact)
	}
	if q.floor != floor || q.cascaded != cascaded || q.peeked != peeked || q.Len() != n {
		t.Fatalf("MinBound moved the wheel: floor %d -> %d, cascaded %d -> %d, peeked %v -> %v, len %d -> %d",
			floor, q.floor, cascaded, q.cascaded, peeked, q.peeked, n, q.Len())
	}
}

// queueOp encodes one queueScript operation.
func queueOp(kind, shift4, arg int) []byte { return []byte{byte(kind | shift4<<3), byte(arg)} }

// queueShapes are the schedules this simulator keeps, as queueScript
// scripts of about n operations each.
var queueShapes = []struct {
	name   string
	script func(n int) []byte
}{
	// Bursty inserts biased near the clock, some far deadlines, equal-time
	// bursts, cancellations of anything: no bound on the population.
	{"bursty", func(n int) []byte { return randomQueueScript(n, 0, 0, 512) }},
	// A ping-pong world: never more than 32 live events, thousands of
	// cycles apart, with the odd retransmit timer far beyond them.
	{"two-host", func(n int) []byte { return randomQueueScript(n, 32, 2000, 20000) }},
	// The scale experiment at N=512: 512 parked retry timers about a
	// million cycles out and a chain of imminent packet events; each pop
	// schedules the next, cancels one of the 256 oldest timers and re-arms
	// it.
	{"fan-in", func(n int) []byte {
		rng := splitmix64(512)
		var s []byte
		for i := 0; i < 512; i++ {
			s = append(s, queueOp(0, 3, 200+int(rng.next()%56))...)
		}
		s = append(s, queueOp(0, 0, 10)...)
		for i := 0; i < n/4; i++ {
			s = append(s, queueOp(3, 0, 0)...)
			s = append(s, queueOp(0, 0, 1+int(rng.next()%200))...)
			s = append(s, queueOp(5, 0, int(rng.next()%256))...)
			s = append(s, queueOp(0, 3, 200+int(rng.next()%56))...)
		}
		return s
	}},
	// RunUntil's peek past its bound: the peek moves floor to the start
	// of a far event's slot, and the next inserts land below it — alone,
	// at equal times, cancelled — and must still pop first.
	{"peek-ahead", func(n int) []byte {
		rng := splitmix64(99)
		var s []byte
		for i := 0; i < n/8; i++ {
			s = append(s, queueOp(0, 3, 50+int(rng.next()%200))...)
			s = append(s, queueOp(4, 0, 0)...)
			s = append(s, queueOp(1, 0, 1+int(rng.next()%60))...)
			s = append(s, queueOp(0, 0, int(rng.next()%60))...)
			s = append(s, queueOp(5, 0, 1+int(rng.next()%3))...)
			s = append(s, queueOp(3, 0, 0)...)
			s = append(s, queueOp(4, 0, 0)...)
			s = append(s, queueOp(0, 1, int(rng.next()%8))...)
		}
		return s
	}},
	// A burst at one timestamp, half of it inserted while that time is
	// still levels above the clock and half after floor has entered its
	// block: seq order survives only if the cascade re-places the first
	// half in list order, ahead of the direct inserts. Once per level, top
	// down, so that the clock's low digits stay zero and the burst's own
	// digits are all it has to come down through.
	{"equal-time across a cascade", func(int) []byte {
		var s []byte
		for shift4 := 13; shift4 >= 1; shift4-- {
			s = append(s, queueOp(1, shift4, 125)...) // two at T, levels up
			s = append(s, queueOp(1, shift4, 125)...) // two more
			s = append(s, queueOp(0, shift4, 124)...) // one just before, in T's slot
			s = append(s, queueOp(3, 0, 0)...)        // pop it: the slot cascades
			s = append(s, queueOp(2, 0, 0)...)        // T again, placed directly
			s = append(s, queueOp(2, 0, 1)...)
			for i := 0; i < 6; i++ {
				s = append(s, queueOp(3, 0, 0)...)
			}
		}
		return s
	}},
	// Times near 1<<62: the clock climbs there a digit at a time, then the
	// bursty schedule carries it across the boundary, where the carry runs
	// through every level.
	{"top level", func(n int) []byte {
		s := append(queueOp(0, 14, 63), queueOp(3, 0, 0)...)
		for shift4 := 13; shift4 >= 1; shift4-- {
			s = append(s, queueOp(0, shift4, 15)...)
			s = append(s, queueOp(3, 0, 0)...)
		}
		return append(s, randomQueueScript(n, 0, 0, 512)...)
	}},
}

// randomQueueScript is n operations of the usual mix — 55 % inserts (half
// of them equal-time pairs, one in twenty a far deadline), 30 % pops, 15 %
// cancellations — with near inserts lo..hi cycles out and, when maxLive is
// set, never more than that many live events.
func randomQueueScript(n, maxLive, lo, hi int) []byte {
	rng := splitmix64(12345)
	s := make([]byte, 0, 2*n)
	live := 0
	for i := 0; i < n; i++ {
		switch r := rng.next(); {
		case r%100 < 55 && (maxLive == 0 || live+2 <= maxLive):
			d, shift4 := lo+int(rng.next()%uint64(hi-lo)), 0
			for d > 255 {
				d, shift4 = d>>4, shift4+1
			}
			if r%1000 < 30 {
				shift4 = 3 + int(r>>20%3) // far: up to 255 << 20
			}
			s = append(s, queueOp(int(r>>10&1), shift4, d)...)
			live += 1 + int(r>>10&1)
		case r%100 < 85:
			s = append(s, queueOp(3, 0, 0)...)
			live -= min(live, 1)
		default:
			s = append(s, queueOp(5, 0, int(rng.next()%256))...)
			live -= min(live, 1)
		}
	}
	return s
}

// TestQueueMatchesHeap runs every shape through the wheel and the heap, and
// bounds the wheel's own work on it: cascades re-place at most two events
// per insert.
func TestQueueMatchesHeap(t *testing.T) {
	for _, shape := range queueShapes {
		t.Run(shape.name, func(t *testing.T) {
			q, inserts := queueScript(t, shape.script(20000))
			if inserts == 0 || q.cascaded > 2*inserts {
				t.Errorf("%d events re-placed by cascades for %d inserts, want at most two each", q.cascaded, inserts)
			}
			if shape.name == "peek-ahead" && q.earlyInserts == 0 {
				t.Error("no insert landed below floor: the early list went untested")
			}
		})
	}
}

// TestCascadeDepth pins the worst case of one PeekMin: two events that
// differ from floor in every digit come down one level per cascade. A lone
// one goes straight to level 0, to the state those cascades would leave.
func TestCascadeDepth(t *testing.T) {
	q := new(wheel)
	ev := &Event{at: math.MaxInt64}
	q.Insert(ev)
	if q.PeekMin() != ev || q.cascaded != 0 || q.floor != math.MaxInt64&^(wheelSlots-1) || ev.heapIdx != wheelSlots-1 {
		t.Fatalf("lone last instant: %d cascades, floor %#x, index %d; want 0, %#x, %d",
			q.cascaded, q.floor, ev.heapIdx, int64(math.MaxInt64&^(wheelSlots-1)), wheelSlots-1)
	}
	q = new(wheel)
	q.Insert(ev)
	q.Insert(&Event{at: math.MaxInt64})
	if q.PeekMin() != ev || q.cascaded != 2*(wheelLevels-1) {
		t.Fatalf("peek of two at the last instant took %d cascades, want %d", q.cascaded, 2*(wheelLevels-1))
	}
}

// FuzzQueueMatchesHeap lets the fuzzer write the schedule. The oracle is
// queueScript's — the heap's pop sequence, length and minimum, the last as
// the ceiling of a side-effect-free MinBound — plus the structural bound on
// cascades: an event moves down at most once per level.
func FuzzQueueMatchesHeap(f *testing.F) {
	for _, shape := range queueShapes {
		f.Add(shape.script(200))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		q, inserts := queueScript(t, script)
		if q.cascaded > (wheelLevels-1)*inserts {
			t.Fatalf("%d events re-placed by cascades for %d inserts", q.cascaded, inserts)
		}
	})
}

// TestPeekAheadThenSchedule is the early list at engine level: RunUntil
// peeks at an event far past its bound, which moves the wheel's floor
// beyond the clock, and what is scheduled next lies below it.
func TestPeekAheadThenSchedule(t *testing.T) {
	for _, q := range queues {
		e := newEngineWithQueue(q.fn())
		var got []string
		note := func(s string) func() { return func() { got = append(got, fmt.Sprint(s, "@", e.Now())) } }
		e.ScheduleAt(1_000_000, note("far"))
		e.RunUntil(100)
		e.Schedule(50, note("b"))
		e.Schedule(0, note("a"))
		e.Schedule(50, note("c"))
		late := e.Schedule(60, note("cancelled"))
		e.RunUntil(120)
		e.Cancel(late)
		e.Schedule(5, note("d"))
		e.Run()
		if want := "[a@100 d@125 b@150 c@150 far@1000000]"; fmt.Sprint(got) != want {
			t.Errorf("%s: fired %v, want %s", q.name, got, want)
		}
		if st := e.Stats(); q.name == "wheel" && st.EarlyInserts != 5 {
			t.Errorf("EarlyInserts = %d, want all 5 schedules below the far event's slot", st.EarlyInserts)
		}
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
	e.RunFor(1000) // warm the freelist and the wheel levels in use
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

// TestSparseSchedule spreads a handful of events across an enormous time
// range: each sits on a level of its own and cascades down alone.
func TestSparseSchedule(t *testing.T) {
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
