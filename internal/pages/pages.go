// Package pages is a grow-only array whose elements never move.
//
// Per-endpoint state at megascale (switch ports, Ethernet bindings) is
// reached through pointers that callers keep for the life of the world,
// so it cannot live in an append-grown slice, and one heap object per
// endpoint costs the collector a mark per object per cycle. An Array
// keeps its elements in pages instead: page k holds 1<<k entries up to
// maxPage, then every page holds maxPage. A host with a handful of ports
// pays for a handful of slots, a million-port switch is about a thousand
// objects, and the most a page can leave unused is maxPage-1 entries.
package pages

import "math/bits"

// maxPage is the entry count of every page from the eleventh on.
const maxPage = 1 << 10

// steadyFrom is the index of the first entry in a full-size page: the
// doubling pages 1, 2, 4, … maxPage/2 hold maxPage-1 entries together.
const steadyFrom = maxPage - 1

// Array is a grow-only array of T. The zero value is empty and ready to
// use. Pointers returned by Push and At stay valid, and keep addressing
// the same element, for the life of the Array.
type Array[T any] struct {
	pages [][]T
	n     int
}

// Len reports the number of elements pushed.
func (a *Array[T]) Len() int { return a.n }

// locate maps index i to its page and the offset within it.
func locate(i int) (page, off int) {
	if i < steadyFrom {
		k := bits.Len(uint(i+1)) - 1
		return k, i + 1 - 1<<k
	}
	j := i - steadyFrom
	return bits.Len(maxPage/2) + j/maxPage, j % maxPage
}

// At returns element i, which must be below Len.
func (a *Array[T]) At(i int) *T {
	if uint(i) >= uint(a.n) {
		panic("pages: index out of range")
	}
	p, off := locate(i)
	return &a.pages[p][off]
}

// Push appends v and returns where it lives. Its index is the Len before
// the call.
func (a *Array[T]) Push(v T) *T {
	p, off := locate(a.n)
	if p == len(a.pages) {
		size := maxPage
		if a.n < steadyFrom {
			size = 1 << p
		}
		a.pages = append(a.pages, make([]T, size))
	}
	a.n++
	e := &a.pages[p][off]
	*e = v
	return e
}
