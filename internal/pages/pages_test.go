package pages

import (
	"math/bits"
	"testing"
)

// TestPushedPointersStay: every pointer Push returns is At(i), and still
// holds its value after the array has grown through every doubling page
// and three full ones.
func TestPushedPointersStay(t *testing.T) {
	var a Array[[2]int]
	n := steadyFrom + 3*maxPage
	ptrs := make([]*[2]int, n)
	for i := 0; i < n; i++ {
		ptrs[i] = a.Push([2]int{i, -i})
		if a.Len() != i+1 || a.At(i) != ptrs[i] {
			t.Fatalf("push %d: Len %d, At(%d) = %p, Push returned %p", i, a.Len(), i, a.At(i), ptrs[i])
		}
	}
	for i, p := range ptrs {
		if a.At(i) != p || *p != [2]int{i, -i} {
			t.Fatalf("element %d moved or changed: At = %p (%v), pushed %p", i, a.At(i), *a.At(i), p)
		}
	}
	if want := bits.Len(maxPage/2) + 3; len(a.pages) != want {
		t.Fatalf("%d pages, want %d", len(a.pages), want)
	}
	for k, pg := range a.pages {
		if want := min(1<<k, maxPage); len(pg) != want {
			t.Errorf("page %d holds %d entries, want %d", k, len(pg), want)
		}
	}
}

// TestSmallArrayIsSmall: one element is one one-entry page, so a host
// with a single port pays for one slot.
func TestSmallArrayIsSmall(t *testing.T) {
	var sink *Array[[4]int]
	allocs := testing.AllocsPerRun(100, func() {
		a := new(Array[[4]int])
		a.Push([4]int{1})
		sink = a
	})
	if len(sink.pages) != 1 || len(sink.pages[0]) != 1 || cap(sink.pages[0]) != 1 {
		t.Fatalf("one element: pages %d, first holds %d (cap %d); want one one-entry page",
			len(sink.pages), len(sink.pages[0]), cap(sink.pages[0]))
	}
	// The array, its page list and the page.
	if allocs != 3 {
		t.Fatalf("one push allocates %v objects, want 3", allocs)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	var a Array[int]
	a.Push(7)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a one-element array did not panic", i)
				}
			}()
			a.At(i)
		}()
	}
}
