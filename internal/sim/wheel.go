package sim

import "math/bits"

// wheel is the engine's event queue: a hierarchical timing wheel addressed
// by the radix-64 digits of an event's time relative to floor, a time no
// later than any event on the wheel. An event sits at level L = the highest
// digit in which its time differs from floor (0 when none does), in the
// slot numbered by that digit of its time. So, for every queued event:
//
//	I1  its time agrees with floor in every digit above L;
//	I2  its slot is digit L of its time;
//	I3  for L >= 1, its slot is greater than digit L of floor.
//
// Hence everything at a lower level precedes everything at a higher one,
// within a level a lower slot precedes a higher one, and a level-0 slot
// holds exactly one timestamp. One occupancy word per level and one mask
// of non-empty levels make "the lowest slot of the lowest level" two
// trailing-zero counts, whatever the spread of the schedule: a few
// imminent packet events and hundreds of far retransmit timers (the
// shape a fan-in world keeps) cost the same as a dense one.
//
// The (at, seq) order needs no compare. Two events at one time always
// share a slot (I1-I3 under the current floor give the later insert the
// level and slot the earlier one has), slots are append-only lists, and a
// cascade re-places a slot's events in list order.
//
// Steady state inserts, peeks and pops touch only existing slots and
// links: zero allocations. A level's slots are allocated on first use, so
// the zero wheel is empty, ready, and a few hundred bytes.
type wheel struct {
	floor Time
	count int

	// peeked caches the current minimum between PeekMin and PopMin (and
	// across Inserts, which can only lower it). It is always on level 0
	// or on the early list.
	peeked *Event

	levels uint16              // bit L: occ[L] != 0
	occ    [wheelLevels]uint64 // bit s of occ[L]: slots[L][s] is non-empty
	slots  [wheelLevels]*[wheelSlots]slot

	// early holds, sorted, the events inserted below floor: PeekMin moves
	// floor up to the start of the slot it returns from, which RunUntil(t)
	// may do for an event past t, and the engine may then schedule between
	// its clock and floor. They precede the whole wheel.
	early slot

	// Engine.Stats counters.
	cascaded, earlyInserts uint64
}

const (
	wheelBits   = 6 // a digit indexes one uint64 of occupancy
	wheelSlots  = 1 << wheelBits
	wheelLevels = 11 // digits in a non-negative int64: ceil(63/6)

	// earlyIdx is the Event.heapIdx of an event on the early list; on the
	// wheel it is level<<wheelBits | slot.
	earlyIdx = -1
)

// slot is an intrusive FIFO list of events.
type slot struct {
	head, tail *Event
}

func (b *slot) unlink(ev *Event) {
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
}

func (q *wheel) Len() int { return q.count }

func (q *wheel) Insert(ev *Event) {
	if ev.at < q.floor {
		q.insertEarly(ev)
	} else {
		q.place(ev)
	}
	q.count++
	if q.peeked != nil && ev.at < q.peeked.at {
		q.peeked = ev
	}
}

// place appends ev to the slot its time and floor select.
func (q *wheel) place(ev *Event) {
	l := uint(bits.Len64(uint64(ev.at^q.floor)|1)-1) / wheelBits
	s := uint(uint64(ev.at)>>(l*wheelBits)) % wheelSlots
	lv := q.slots[l]
	if lv == nil {
		lv = new([wheelSlots]slot)
		q.slots[l] = lv
	}
	b := &lv[s]
	ev.next, ev.prev = nil, b.tail
	if b.tail != nil {
		b.tail.next = ev
	} else {
		b.head = ev
		q.occ[l] |= 1 << s
		q.levels |= 1 << l
	}
	b.tail = ev
	ev.heapIdx = int(l<<wheelBits | s)
}

// insertEarly links ev into the early list in (at, seq) order. The walk
// starts at the tail: ev carries the highest seq so far, and the clock it
// was scheduled against only moves forward.
func (q *wheel) insertEarly(ev *Event) {
	q.earlyInserts++
	b := &q.early
	p := b.tail
	for p != nil && ev.at < p.at {
		p = p.prev
	}
	ev.prev = p
	if p != nil {
		ev.next, p.next = p.next, ev
	} else {
		ev.next, b.head = b.head, ev
	}
	if ev.next != nil {
		ev.next.prev = ev
	} else {
		b.tail = ev
	}
	ev.heapIdx = earlyIdx
}

func (q *wheel) Remove(ev *Event) {
	if q.peeked == ev {
		q.peeked = nil
	}
	q.count--
	if ev.heapIdx == earlyIdx {
		q.early.unlink(ev)
		return
	}
	l, s := uint(ev.heapIdx)>>wheelBits, uint(ev.heapIdx)%wheelSlots
	b := &q.slots[l][s]
	b.unlink(ev)
	if b.head == nil {
		q.clear(l, s)
	}
}

// clear marks slot s of level l empty.
func (q *wheel) clear(l, s uint) {
	if q.occ[l] &^= 1 << s; q.occ[l] == 0 {
		q.levels &^= 1 << l
	}
}

func (q *wheel) PeekMin() *Event {
	if q.peeked != nil {
		return q.peeked
	}
	if q.early.head != nil {
		q.peeked = q.early.head
		return q.peeked
	}
	// Each cascade empties the lowest level's lowest slot into levels
	// below it, so the loop ends within wheelLevels-1 rounds.
	for q.levels != 0 {
		l := uint(bits.TrailingZeros16(q.levels))
		s := uint(bits.TrailingZeros64(q.occ[l]))
		b := &q.slots[l][s]
		if l == 0 {
			q.peeked = b.head
			return q.peeked
		}
		// Cascade: floor moves to the start of the slot (digits above l
		// kept, digit l = s, lower digits 0; every lower level is empty and
		// the rest of level l is in higher slots, so I1-I3 still hold) and
		// the slot's events, which now agree with floor from digit l up,
		// are re-placed below l in list order.
		q.floor = q.slotStart(l, s)
		ev := b.head
		*b = slot{}
		q.clear(l, s)
		for ev != nil {
			next := ev.next
			q.place(ev)
			q.cascaded++
			ev = next
		}
	}
	return nil
}

// slotStart is the earliest time slot s of level l can hold: floor's digits
// above l, digit l = s, lower digits 0.
func (q *wheel) slotStart(l, s uint) Time {
	shift := l * wheelBits
	return q.floor&^(1<<(shift+wheelBits)-1) | Time(s<<shift)
}

// MinBound is exact when the minimum is already known (the early list, a
// cached peek, a level-0 slot) and otherwise the start of the slot PeekMin
// would cascade next. It must not cascade itself: moving floor up to a far
// timer's slot would send every near-term insert after it to the sorted
// early list.
func (q *wheel) MinBound() Time {
	switch {
	case q.early.head != nil:
		return q.early.head.at
	case q.peeked != nil:
		return q.peeked.at
	case q.levels == 0:
		return maxTime
	}
	l := uint(bits.TrailingZeros16(q.levels))
	return q.slotStart(l, uint(bits.TrailingZeros64(q.occ[l])))
}

func (q *wheel) PopMin() *Event {
	ev := q.PeekMin()
	if ev == nil {
		return nil
	}
	if ev.heapIdx != earlyIdx {
		// ev agrees with floor above digit 0, so only that digit moves and
		// I1-I3 hold for everything left. An early event leaves floor alone.
		q.floor = ev.at
	}
	// The list successor is the next minimum: on level 0 it shares ev's
	// timestamp, on the early list it precedes the whole wheel.
	next := ev.next
	q.Remove(ev)
	q.peeked = next
	return ev
}
