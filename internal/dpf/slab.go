package dpf

import "unsafe"

// The engine keeps everything it stores in slabs addressed by uint32 index
// instead of in individually allocated, pointer-linked objects: a million
// installed filters are a few hundred pages the collector never looks
// inside, not a few million small objects it marks every cycle.

const (
	pageShift = 12
	pageSize  = 1 << pageShift

	// nilIdx terminates index-linked lists (a node's branches, the free
	// lists) and marks "no such entry".
	nilIdx = ^uint32(0)
)

// slab is a grow-only array of T in pages of pageSize entries. The first
// page grows by append, so an engine holding a handful of filters costs
// what a small slice costs; every later page is allocated once at full
// capacity, so a large slab is never re-copied (an append-grown slice
// re-copies at 1.25x once large: about five times its final size in
// total allocation).
//
// A pointer from at is stale after the next push while the first page is
// still growing: never hold one across a push.
type slab[T any] struct {
	pages [][]T
	n     uint32 // entries pushed
}

func (s *slab[T]) at(i uint32) *T {
	return &s.pages[i>>pageShift][i&(pageSize-1)]
}

// push appends v and returns its index. Indices are issued consecutively.
func (s *slab[T]) push(v T) uint32 {
	i := s.n
	if i == nilIdx {
		panic("dpf: slab index space exhausted")
	}
	p := int(i >> pageShift)
	if p == len(s.pages) {
		var page []T
		if p > 0 {
			page = make([]T, 0, pageSize)
		}
		s.pages = append(s.pages, page)
	}
	s.pages[p] = append(s.pages[p], v)
	s.n++
	return i
}

// bytes reports the storage the slab's pages hold, used or not.
func (s *slab[T]) bytes() int {
	var zero T
	total := 0
	for _, p := range s.pages {
		total += cap(p) * int(unsafe.Sizeof(zero))
	}
	return total
}

// kidSlot maps one field value to the child node reached through it. Node
// 0 is the root and never a child, so kid 0 marks an empty table slot and
// a zeroed table is an empty one.
type kidSlot struct{ val, kid uint32 }

// kidTable is the open-addressed child table of a branch with more
// children than fit inline: power-of-two length, linear probing, load
// kept at or below 3/4 by doubling, deletion by backward shift (no
// tombstones, so churn never degrades it and it never needs a rehash at
// constant size). The slot array holds no Go pointers.
type kidTable struct {
	slots []kidSlot
	shift uint8 // 32 - log2(len(slots))
}

func newKidTable(log2 uint8) *kidTable {
	return &kidTable{slots: make([]kidSlot, 1<<log2), shift: 32 - log2}
}

// home is val's preferred slot (Fibonacci hashing: consecutive values,
// the common case for addresses and ports, spread evenly).
func (t *kidTable) home(val uint32) uint32 { return (val * 0x9E3779B1) >> t.shift }

// locate returns the slot holding val, or the empty slot that ends its
// probe sequence.
func (t *kidTable) locate(val uint32) uint32 {
	mask := uint32(len(t.slots) - 1)
	i := t.home(val)
	for t.slots[i].kid != 0 && t.slots[i].val != val {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table.
func (t *kidTable) grow() {
	old := t.slots
	t.slots = make([]kidSlot, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.kid != 0 {
			t.slots[t.locate(s.val)] = s
		}
	}
}

// del empties slot i and shifts the entries that probed past it back, so
// every remaining entry stays reachable from its home slot.
func (t *kidTable) del(i uint32) {
	mask := uint32(len(t.slots) - 1)
	for j := i; ; {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.kid == 0 {
			break
		}
		// s may fill the hole at i unless its home lies cyclically in (i, j].
		if (j-t.home(s.val))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = kidSlot{}
}
