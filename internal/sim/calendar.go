package sim

// CalendarQueue is the engine's default event queue: Brown's calendar
// queue (CACM '88), the classic O(1)-amortized priority queue for
// discrete-event simulation. Events hash by time into an array of
// "days" (buckets), each a short sorted list; dequeue scans forward
// from the last-popped day and only considers events falling within the
// current "year", wrapping bucket windows give later years.
//
// The structure self-tunes: when the population outgrows the bucket
// array it doubles (halves when it shrinks), recomputing the bucket
// width from the observed event-time spread. All resize decisions are
// pure functions of queue contents, so two runs with identical schedules
// resize identically — determinism does not depend on the queue staying
// out of the way, but wall-clock reproducibility of the hotpath bench
// does.
//
// Steady state inserts, peeks and pops touch only existing buckets and
// links: zero allocations.
type CalendarQueue struct {
	buckets []calBucket
	mask    uint64 // len(buckets)-1; bucket count is a power of two
	width   Time   // virtual-time width of one day
	count   int

	// floor is the last dequeued timestamp: the scan origin. The engine
	// never schedules into the past, so every queued event is >= floor.
	floor Time

	// peeked caches the current minimum between PeekMin and PopMin (and
	// across Inserts, which can only lower it).
	peeked *Event

	// Engine.Stats counters.
	resizes, sparseFallbacks uint64
}

const calMinBuckets = 16

// NewCalendarQueue returns an empty calendar queue.
func NewCalendarQueue() EventQueue {
	return &CalendarQueue{
		buckets: make([]calBucket, calMinBuckets),
		mask:    calMinBuckets - 1,
		width:   1,
	}
}

type calBucket struct {
	head, tail *Event
}

func (q *CalendarQueue) Len() int { return q.count }

func (q *CalendarQueue) bucketOf(at Time) *calBucket {
	return &q.buckets[uint64(at/q.width)&q.mask]
}

func (q *CalendarQueue) Insert(ev *Event) {
	if q.count+1 > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
	q.link(ev)
	q.count++
	if q.peeked != nil && ev.before(q.peeked) {
		q.peeked = ev
	}
}

// link places ev into its bucket's sorted list. The walk starts at the
// tail: simulation inserts are overwhelmingly at or past the bucket's
// latest entry (timers fire in roughly increasing order), making the
// common case a constant-time append.
func (q *CalendarQueue) link(ev *Event) {
	b := q.bucketOf(ev.at)
	p := b.tail
	for p != nil && ev.before(p) {
		p = p.prev
	}
	if p == nil {
		ev.prev = nil
		ev.next = b.head
		if b.head != nil {
			b.head.prev = ev
		} else {
			b.tail = ev
		}
		b.head = ev
	} else {
		ev.prev = p
		ev.next = p.next
		if p.next != nil {
			p.next.prev = ev
		} else {
			b.tail = ev
		}
		p.next = ev
	}
	ev.queued = true
}

func (q *CalendarQueue) Remove(ev *Event) {
	q.unlink(ev)
	q.count--
	if q.peeked == ev {
		q.peeked = nil
	}
	q.maybeShrink()
}

func (q *CalendarQueue) unlink(ev *Event) {
	b := q.bucketOf(ev.at)
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
	ev.queued = false
}

func (q *CalendarQueue) maybeShrink() {
	if len(q.buckets) > calMinBuckets && q.count < len(q.buckets)/4 {
		q.resize(len(q.buckets) / 2)
	}
}

func (q *CalendarQueue) PeekMin() *Event {
	if q.peeked != nil {
		return q.peeked
	}
	if q.count == 0 {
		return nil
	}
	n := len(q.buckets)
	epoch := q.floor / q.width
	// One pass over the calendar starting at today: a bucket's head
	// counts only if it falls within that bucket's window of the current
	// year. Buckets are scanned in increasing window order and each list
	// is sorted, so the first in-window head is the global minimum.
	//
	// Every queued event is >= floor and sits in the bucket congruent to
	// its day, so the head of bucket epoch+i is on day epoch+i or a whole
	// number of years later: "on day epoch+i" is "before the end of day
	// epoch+i", a compare against a running limit in place of a 64-bit
	// divide per bucket. (A limit that overflows compares false and falls
	// through to the direct scan below, which needs no window.)
	limit := epoch * q.width
	for i := 0; i < n; i++ {
		limit += q.width
		b := &q.buckets[(uint64(epoch)+uint64(i))&q.mask]
		if h := b.head; h != nil && h.at < limit {
			q.peeked = h
			return h
		}
	}
	// Nothing due this year: the queue is sparse relative to its span.
	// Fall back to a direct minimum over the bucket heads.
	q.sparseFallbacks++
	var min *Event
	for i := range q.buckets {
		if h := q.buckets[i].head; h != nil && (min == nil || h.before(min)) {
			min = h
		}
	}
	q.peeked = min
	return min
}

func (q *CalendarQueue) PopMin() *Event {
	ev := q.PeekMin()
	if ev == nil {
		return nil
	}
	// If the successor in ev's bucket shares ev's window, it is the next
	// minimum (later windows and later years are all strictly greater):
	// keep the cache warm so bursts at one timestamp pop in O(1).
	q.peeked = nil
	if nx := ev.next; nx != nil && nx.at/q.width == ev.at/q.width {
		q.peeked = nx
	}
	q.unlink(ev)
	q.count--
	q.floor = ev.at
	q.maybeShrink()
	return ev
}

// resize rebuilds the calendar with n buckets, recomputing the day width
// from the live events' spread so that the population averages about one
// event per bucket. Called only on threshold crossings; steady-state
// traffic never resizes (and so never allocates).
func (q *CalendarQueue) resize(n int) {
	q.resizes++
	evs := make([]*Event, 0, q.count)
	var minAt, maxAt Time
	for i := range q.buckets {
		for ev := q.buckets[i].head; ev != nil; {
			nx := ev.next
			ev.next, ev.prev = nil, nil
			if len(evs) == 0 || ev.at < minAt {
				minAt = ev.at
			}
			if len(evs) == 0 || ev.at > maxAt {
				maxAt = ev.at
			}
			evs = append(evs, ev)
			ev = nx
		}
		q.buckets[i] = calBucket{}
	}
	width := Time(1)
	if len(evs) > 0 {
		width = (maxAt-minAt)/Time(len(evs)) + 1
	}
	if cap(q.buckets) >= n {
		q.buckets = q.buckets[:n]
	} else {
		q.buckets = make([]calBucket, n)
	}
	q.mask = uint64(n - 1)
	q.width = width
	q.peeked = nil
	for _, ev := range evs {
		q.link(ev)
	}
}
