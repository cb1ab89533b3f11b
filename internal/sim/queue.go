package sim

// Event is one scheduled callback. Events are intrusive — the links below
// thread them into whichever EventQueue the engine runs on — and are
// recycled through the engine's freelist once fired or cancelled, so
// steady-state scheduling allocates nothing. Because a recycled Event may
// be reused for an unrelated callback, callers never hold *Event directly:
// Schedule/ScheduleAt return a generation-checked Timer handle instead.
type Event struct {
	at  Time
	seq uint64

	// gen is bumped every time the event is recycled; a Timer whose
	// generation no longer matches refers to a previous life of this
	// Event and cancels nothing.
	gen uint64

	// Exactly one of fn / afn is set. afn carries an explicit argument so
	// hot paths can schedule a long-lived bound function without building
	// a fresh closure per packet.
	fn  func()
	afn func(any)
	arg any

	// Queue linkage: doubly linked within a wheel slot (and the freelist
	// reuses next), with heapIdx naming the slot; in a heapQueue heapIdx is
	// the event's position instead.
	next, prev *Event
	heapIdx    int
}

// At reports the virtual time at which the event is scheduled.
func (ev *Event) At() Time { return ev.at }

// before is the engine's total order: time, then scheduling sequence, so
// events at equal times fire FIFO.
func (ev *Event) before(o *Event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// EventQueue is the ordered queue the engine schedules against. The
// engine owns event allocation and recycling; a queue only links and
// unlinks. PopMin/PeekMin follow the (at, seq) order exactly — the
// engine's determinism contract (equal-time FIFO) is the queue's to keep.
type EventQueue interface {
	// Insert links a not-currently-queued event.
	Insert(ev *Event)
	// Remove unlinks a queued event (cancellation).
	Remove(ev *Event)
	// PeekMin returns the next event without unlinking it, or nil.
	PeekMin() *Event
	// PopMin unlinks and returns the next event, or nil.
	PopMin() *Event
	// MinBound returns a time no later than any queued event's (maxTime
	// when there is none) and leaves the queue exactly as it was: where
	// PeekMin may reorganise to find the minimum, MinBound may only look.
	MinBound() Time
	// Len reports the number of queued events.
	Len() int
}

// heapQueue is a plain binary heap over the intrusive events. It is the
// reference implementation: O(log n) everywhere, no tuning knobs. The
// engine runs on the wheel; the heap stays as the oracle for differential
// tests.
type heapQueue struct {
	evs []*Event
}

// newHeapQueue returns an empty binary-heap event queue.
func newHeapQueue() EventQueue { return &heapQueue{} }

func (h *heapQueue) Len() int { return len(h.evs) }

func (h *heapQueue) Insert(ev *Event) {
	ev.heapIdx = len(h.evs)
	h.evs = append(h.evs, ev)
	h.siftUp(ev.heapIdx)
}

func (h *heapQueue) Remove(ev *Event) {
	i := ev.heapIdx
	last := len(h.evs) - 1
	if i != last {
		h.evs[i] = h.evs[last]
		h.evs[i].heapIdx = i
	}
	h.evs[last] = nil
	h.evs = h.evs[:last]
	if i != last {
		if !h.siftUp(i) {
			h.siftDown(i)
		}
	}
}

func (h *heapQueue) PeekMin() *Event {
	if len(h.evs) == 0 {
		return nil
	}
	return h.evs[0]
}

func (h *heapQueue) MinBound() Time {
	if len(h.evs) == 0 {
		return maxTime
	}
	return h.evs[0].at
}

func (h *heapQueue) PopMin() *Event {
	if len(h.evs) == 0 {
		return nil
	}
	ev := h.evs[0]
	h.Remove(ev)
	return ev
}

func (h *heapQueue) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.evs[i].before(h.evs[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *heapQueue) siftDown(i int) {
	n := len(h.evs)
	for {
		min := i
		if l := 2*i + 1; l < n && h.evs[l].before(h.evs[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && h.evs[r].before(h.evs[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h *heapQueue) swap(i, j int) {
	h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
	h.evs[i].heapIdx = i
	h.evs[j].heapIdx = j
}
