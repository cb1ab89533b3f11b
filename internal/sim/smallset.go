package sim

// smallCap is the most events the small set holds. The pending schedules
// this simulator keeps come in two shapes: a two-host world (Tables I and
// V, tcp-bulk, chaos) never has more than 8 events queued, and a crowded
// one (overload, scale, megascale) has hundreds to thousands. The cap sits
// at the first shape's measured maximum (bench's TestQueueShapes holds the
// two-host experiments to it).
const smallCap = 8

// smallSet is the queue every engine starts on: at most smallCap events,
// sorted by (at, seq), held inline in the Engine. The head is the minimum,
// so PeekMin and MinBound are exact and Pop shifts the rest down; Insert
// scans from the tail and Remove scans for its event, at most smallCap
// steps each. An insert past the cap hands the set over to a timing wheel
// (Engine.spill), which the engine then runs on for the rest of its life.
type smallSet struct {
	evs [smallCap]*Event
	n   int
	eng *Engine
}

func (s *smallSet) Len() int { return s.n }

// Insert links ev in (at, seq) order. The scan starts at the tail with a
// strict compare: ev carries the highest seq so far, so an equal-time
// event stays behind the ones already queued.
func (s *smallSet) Insert(ev *Event) {
	if s.n == smallCap {
		s.eng.spill(ev)
		return
	}
	i := s.n
	for ; i > 0 && ev.at < s.evs[i-1].at; i-- {
		s.evs[i] = s.evs[i-1]
	}
	s.evs[i] = ev
	s.n++
}

// Remove shifts the events after ev down by one place. It loops rather
// than copies: the set is short, and a copy of pointers is a runtime call.
func (s *smallSet) Remove(ev *Event) {
	i := 0
	for s.evs[i] != ev {
		i++
	}
	s.n--
	for ; i < s.n; i++ {
		s.evs[i] = s.evs[i+1]
	}
	s.evs[s.n] = nil
}

func (s *smallSet) PeekMin() *Event {
	if s.n == 0 {
		return nil
	}
	return s.evs[0]
}

// Pop takes ev, the head, off the set: Remove's scan ends at once.
func (s *smallSet) Pop(ev *Event) { s.Remove(ev) }

func (s *smallSet) MinBound() Time {
	if s.n == 0 {
		return maxTime
	}
	return s.evs[0].at
}
