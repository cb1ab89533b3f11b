package dpf

import "unsafe"

// A shape is what a filter's atoms test, without the constants: the (offset,
// size, mask) of each atom in the order the caller gave them. Filters that
// differ only in their constants — every per-endpoint filter of a fan —
// share one shape, and the engine stores each filter as its shape's index
// and a run of values, one uint32 per atom, in the same order.
type shape struct {
	slots []shapeSlot // one per atom
	refs  uint32      // filters installed with this shape
}

// shapeSlot j says what the caller's atom j tests, and which of the
// caller's atoms sits at trie level j: its key is slots[pos].k, and its
// value the filter's value pos. One slice serves DemuxLinear, which reads
// atoms in the caller's order, and the trie walks, which read them in
// trie order.
type shapeSlot struct {
	k   key
	pos uint32
}

// shapeTable holds each distinct shape once. A shape is found by a scan of
// the live ones, the last one hit first: a batch's filters mostly share
// one, and an engine holds a few layouts. A shape is reference-counted;
// once its last filter is removed it is free, and the next new shape of
// its length takes its record and its slots.
type shapeTable struct {
	recs []shape
	live int    // shapes in use
	last uint32 // the last shape found or made: a hint, stale once freed
}

// is reports whether atoms have shape s's keys, in the same order.
func (s *shape) is(atoms []atom) bool {
	if len(atoms) != len(s.slots) {
		return false
	}
	for j, a := range atoms {
		if a.key() != s.slots[j].k {
			return false
		}
	}
	return true
}

// intern returns the index of the shape of atoms, made if it is new, and
// takes a reference to it.
func (t *shapeTable) intern(atoms []atom) uint32 {
	s := t.last
	if int(s) >= len(t.recs) || t.recs[s].refs == 0 || !t.recs[s].is(atoms) {
		s = t.find(atoms)
	}
	t.recs[s].refs++
	t.last = s
	return s
}

// find returns the live shape of atoms or, if there is none, makes one in
// a free record of its length or a new record.
func (t *shapeTable) find(atoms []atom) uint32 {
	free := -1
	for i := range t.recs {
		sh := &t.recs[i]
		switch {
		case sh.refs > 0 && sh.is(atoms):
			return uint32(i)
		case sh.refs == 0 && free < 0 && len(sh.slots) == len(atoms):
			free = i
		}
	}
	if free < 0 {
		free = len(t.recs)
		t.recs = append(t.recs, shape{slots: make([]shapeSlot, len(atoms))})
	}
	slots := t.recs[free].slots
	for j, a := range atoms {
		slots[j].k = a.key()
		// A stable insertion sort of positions into trie order (offset,
		// size, mask): atoms testing one field keep the caller's order.
		l := j
		for ; l > 0 && a.key().less(slots[slots[l-1].pos].k); l-- {
			slots[l].pos = slots[l-1].pos
		}
		slots[l].pos = uint32(j)
	}
	t.live++
	return uint32(free)
}

// release drops a reference to shape s, which is free once it has none.
func (t *shapeTable) release(s uint32) {
	if t.recs[s].refs--; t.recs[s].refs == 0 {
		t.live--
	}
}

// bytes reports the storage the table holds: the shape records at
// capacity and every record's slots, free ones included.
func (t *shapeTable) bytes() int {
	total := cap(t.recs) * int(unsafe.Sizeof(shape{}))
	for _, sh := range t.recs {
		total += cap(sh.slots) * int(unsafe.Sizeof(shapeSlot{}))
	}
	return total
}
