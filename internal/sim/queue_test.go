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

// queueScript drives e's queue and the reference heap through one schedule
// and requires identical (at, seq) peeks, pops and lengths, and after every
// operation a MinBound that is no later than the heap's minimum and was free
// (bound). It reads e.q afresh for every operation, so an insert may swap a
// NewEngine's small set for a wheel under it, and keeps e's clock at the
// last pop, as the engine's own loop would. The schedule is a string of
// two-byte operations, so that the shapes below and whatever the fuzzer
// makes of them run through one interpreter:
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
// number of inserts made and the most events that were live at once.
func queueScript(t testing.TB, e *Engine, script []byte) (inserts uint64, maxLive int) {
	type pair struct{ q, ref *Event }
	ref := newHeapQueue()
	var live []pair
	var seq uint64
	now := Time(0)

	insert := func(at Time) {
		p := pair{&Event{at: at, seq: seq}, &Event{at: at, seq: seq}}
		seq++
		e.q.Insert(p.q)
		ref.Insert(p.ref)
		live = append(live, p)
		maxLive = max(maxLive, len(live))
	}
	same := func(what string, a, b *Event) {
		if (a == nil) != (b == nil) || a != nil && (a.at != b.at || a.seq != b.seq) {
			t.Fatalf("%s diverged: queue %v, heap %v", what, a, b)
		}
	}
	pop := func() {
		a, b := e.q.PeekMin(), ref.PeekMin()
		same("peek", a, b)
		if a == nil {
			return
		}
		e.q.Pop(a)
		ref.Pop(b)
		if a.at < now {
			t.Fatalf("popped %d after %d", a.at, now)
		}
		now = a.at
		e.now = now
		for i := range live {
			if live[i].q == a {
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
				insert(live[int(arg)%len(live)].q.at)
			}
		case 3, 6:
			pop()
		case 4:
			same("peek", e.q.PeekMin(), ref.PeekMin())
		case 5:
			if len(live) > 0 {
				i := int(arg) % len(live)
				e.q.Remove(live[i].q)
				ref.Remove(live[i].ref)
				live = append(live[:i], live[i+1:]...)
			}
		}
		if e.q.Len() != ref.Len() {
			t.Fatalf("length diverged: queue %d, heap %d", e.q.Len(), ref.Len())
		}
		bound(t, e.q, ref)
	}
	for e.q.Len() > 0 {
		pop()
	}
	same("peek of the empty queues", e.q.PeekMin(), ref.PeekMin())
	return seq, maxLive
}

// bound asks q for its MinBound and checks it against the heap's exact one
// — the small set's must equal it — and, on a wheel, against the wheel's
// own state before the call.
func bound(t testing.TB, q, ref EventQueue) {
	n := q.Len()
	var before wheel
	w, _ := q.(*wheel)
	if w != nil {
		before = *w
	}
	got, exact := q.MinBound(), ref.MinBound()
	if min := ref.PeekMin(); min == nil && exact != maxTime || min != nil && exact != min.at {
		t.Fatalf("heap MinBound %d, its minimum is %v", exact, min)
	}
	if _, small := q.(*smallSet); got > exact || small && got != exact || n == 0 && got != maxTime {
		t.Fatalf("%T MinBound %d with %d queued, the earliest at %d", q, got, n, exact)
	}
	if q.Len() != n {
		t.Fatalf("MinBound changed the length: %d -> %d", n, q.Len())
	}
	if w != nil && (w.floor != before.floor || w.cascaded != before.cascaded || w.peeked != before.peeked) {
		t.Fatalf("MinBound moved the wheel: floor %d -> %d, cascaded %d -> %d, peeked %v -> %v",
			before.floor, w.floor, before.cascaded, w.cascaded, before.peeked, w.peeked)
	}
}

// spilledAsLive requires e, a NewEngine that queueScript drove, to have
// spilled onto the wheel exactly when the script had more events live at
// once than the small set holds.
func spilledAsLive(t testing.TB, e *Engine, maxLive int) {
	t.Helper()
	want := uint64(0)
	if maxLive > smallCap {
		want = 1
	}
	if got := e.Stats().Spills; got != want {
		t.Fatalf("%d spills with at most %d events live, want %d", got, maxLive, want)
	}
	if _, onWheel := e.q.(*wheel); onWheel != (want == 1) {
		t.Fatalf("the engine runs on %T after %d spills", e.q, want)
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
	// The small set's cap from below and above: blocks of 1 to 3*smallCap
	// events, each drained before the next, so the one that first crosses
	// the cap spills and the rest run on the wheel.
	{"crossing the cap", func(int) []byte {
		var s []byte
		for k := 1; k <= 3*smallCap; k++ {
			s = append(s, spillBlock(k)...)
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

// spillBlock fills the queue to k far events, cancelling and re-arming one
// in three on the way, peeks at the head (RunUntil's peek past its limit),
// then inserts below it an equal-time pair near the clock and one more at
// the oldest live event's time, and drains the queue: at most k+3 events
// live, so from k = smallCap-2 on the block crosses the small set's cap,
// at each of the three inserts in turn.
func spillBlock(k int) []byte {
	var s []byte
	for i := 0; i < k; i++ {
		s = append(s, queueOp(0, 3, 100+i%7)...)
		if i%3 == 2 {
			s = append(s, queueOp(5, 0, i)...)
			s = append(s, queueOp(0, 3, 100+i%5)...)
		}
	}
	s = append(s, queueOp(4, 0, 0)...)
	s = append(s, queueOp(1, 0, 9)...)
	s = append(s, queueOp(2, 0, 0)...)
	for i := 0; i < k+3; i++ {
		s = append(s, queueOp(3, 0, 0)...)
	}
	return s
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

// TestQueueMatchesHeap runs every shape through the wheel and through
// NewEngine's queue, each against the heap. It bounds the wheel's own work
// on it, cascades re-placing at most two events per insert, and requires the
// engine to spill exactly when the shape outgrows the small set.
func TestQueueMatchesHeap(t *testing.T) {
	for _, shape := range queueShapes {
		t.Run(shape.name, func(t *testing.T) {
			e := newEngineWithQueue(new(wheel))
			inserts, _ := queueScript(t, e, shape.script(20000))
			st := e.Stats()
			if inserts == 0 || st.Cascades > 2*inserts {
				t.Errorf("%d events re-placed by cascades for %d inserts, want at most two each", st.Cascades, inserts)
			}
			if shape.name == "peek-ahead" && st.EarlyInserts == 0 {
				t.Error("no insert landed below floor: the early list went untested")
			}
			e = NewEngine()
			_, maxLive := queueScript(t, e, shape.script(20000))
			spilledAsLive(t, e, maxLive)
		})
	}
}

// TestSmallSetSpill runs spillBlock(k) for k = 1 to 3*smallCap on a fresh
// NewEngine each, so that each of a block's last three inserts is the one
// that spills for some k: after a peek at a far head, into a set holding
// equal-time events and the places of cancelled ones.
func TestSmallSetSpill(t *testing.T) {
	for k := 1; k <= 3*smallCap; k++ {
		e := NewEngine()
		_, maxLive := queueScript(t, e, spillBlock(k))
		spilledAsLive(t, e, maxLive)
		if spilled := maxLive > smallCap; spilled != (k >= smallCap-2) {
			t.Errorf("block %d: at most %d live, the block crosses the cap from %d on", k, maxLive, smallCap-2)
		}
		// Once on the wheel, for good: the emptied engine filling up again
		// spills no more.
		queueScript(t, e, spillBlock(1))
		if spills := e.Stats().Spills; spills > 1 {
			t.Errorf("block %d: %d spills, the engine went back to the small set", k, spills)
		}
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

// FuzzQueueMatchesHeap lets the fuzzer write the schedule, and runs it on
// the wheel and on NewEngine's queue. The oracle is queueScript's — the
// heap's pop sequence, length and minimum, the last as the ceiling of a
// side-effect-free MinBound — plus the structural bound on cascades (an
// event moves down at most once per level) and the spill rule.
func FuzzQueueMatchesHeap(f *testing.F) {
	for _, shape := range queueShapes {
		f.Add(shape.script(200))
	}
	for _, k := range []int{smallCap - 3, smallCap - 2, smallCap, 2 * smallCap} {
		f.Add(spillBlock(k))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		e := newEngineWithQueue(new(wheel))
		inserts, _ := queueScript(t, e, script)
		if c := e.Stats().Cascades; c > (wheelLevels-1)*inserts {
			t.Fatalf("%d events re-placed by cascades for %d inserts", c, inserts)
		}
		e = NewEngine()
		_, maxLive := queueScript(t, e, script)
		spilledAsLive(t, e, maxLive)
	})
}

// TestPeekAheadThenSchedule is the early list at engine level: RunUntil
// peeks at an event far past its bound, which moves the wheel's floor
// beyond the clock, and what is scheduled next lies below it.
func TestPeekAheadThenSchedule(t *testing.T) {
	for _, q := range queues {
		e := q.engine()
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

// TestSpillAfterPeekAhead is TestPeekAheadThenSchedule with the small set
// full: RunUntil peeks at the far head and moves the clock to its limit,
// and the schedules that follow cross the cap there. The wheel they spill
// onto starts at the clock, below the far events, not at their head: only
// c, scheduled after the second RunUntil peeked at b, lands below floor.
func TestSpillAfterPeekAhead(t *testing.T) {
	for _, q := range queues {
		e := q.engine()
		var got []string
		note := func(s string) func() { return func() { got = append(got, fmt.Sprint(s, "@", e.Now())) } }
		for i := 0; i < smallCap; i++ {
			e.ScheduleAt(1_000_000+Time(i%3), note(fmt.Sprint("far", i)))
		}
		e.RunUntil(100)
		e.Schedule(50, note("b")) // the spill
		e.Schedule(0, note("a"))
		late := e.Schedule(50, note("cancelled"))
		e.RunUntil(120)
		e.Cancel(late)
		e.Schedule(5, note("c"))
		e.Run()
		want := "[a@100 c@125 b@150 far0@1000000 far3@1000000 far6@1000000 far1@1000001 far4@1000001 far7@1000001 far2@1000002 far5@1000002]"
		if fmt.Sprint(got) != want {
			t.Errorf("%s: fired %v, want %s", q.name, got, want)
		}
		if st := e.Stats(); q.name == "NewEngine" && (st.Spills != 1 || st.EarlyInserts != 1) {
			t.Errorf("%d spills, %d early inserts; want 1 and 1", st.Spills, st.EarlyInserts)
		}
	}
}

// TestEngineOnHeapQueueEquivalent runs the same simulation on every engine
// construction and checks each trace against the heap's. With one chain of
// self-rescheduling events NewEngine never leaves its small set; with
// twelve it spills onto the wheel early on.
func TestEngineOnHeapQueueEquivalent(t *testing.T) {
	run := func(e *Engine, chains int) []Time {
		var trace []Time
		rng := splitmix64(7)
		var tick func()
		n := 0
		tick = func() {
			trace = append(trace, e.Now())
			n++
			if n < 500*chains {
				e.Schedule(Time(rng.next()%97), tick)
				if n%3 == 0 {
					tm := e.Schedule(Time(rng.next()%29), func() { trace = append(trace, -e.Now()) })
					if n%6 == 0 {
						e.Cancel(tm)
					}
				}
			}
		}
		for i := 0; i < chains; i++ {
			e.Schedule(Time(i), tick)
		}
		e.Run()
		return trace
	}
	for _, chains := range []int{1, 12} {
		want := run(newEngineWithQueue(newHeapQueue()), chains)
		for _, q := range queues {
			e := q.engine()
			got := run(e, chains)
			if len(got) != len(want) {
				t.Fatalf("%s, %d chains: trace length %d, the heap's %d", q.name, chains, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %d chains: trace diverges at %d: %d, the heap's %d", q.name, chains, i, got[i], want[i])
				}
			}
			if spills := e.Stats().Spills; q.name == "NewEngine" && (spills == 1) != (chains > 1) {
				t.Errorf("%d chains: %d spills", chains, spills)
			}
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
