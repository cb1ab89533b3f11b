// Package alloctest measures the bytes a window of code allocates on the Go
// heap, for tests that bound them.
//
// The count is process-wide (/gc/heap/allocs:bytes), so a goroutine outside
// the window — the runtime's or the testing package's — can allocate inside
// it now and then. Such an intrusion only ever adds bytes, so the least of
// several identical windows is the window's own allocation: a bound on the
// minimum is as tight as a bound on any one run, and does not flake.
package alloctest

import (
	"runtime"
	"runtime/metrics"
)

// Runs is how many times Bytes measures a window.
const Runs = 3

// Bytes returns the fewest bytes window allocates on the Go heap over Runs
// runs. setup, when not nil, runs before each window, outside the
// measurement: a window that cannot run twice (a cold cache's first miss,
// writes into a fresh file) gets its state rebuilt by setup each time.
func Bytes(setup, window func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	read := func() uint64 {
		// A collection flushes the per-P caches, so the count is exact.
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	read() // the process's first metrics.Read sets itself up
	least := ^uint64(0)
	for range Runs {
		if setup != nil {
			setup()
		}
		before := read()
		window()
		least = min(least, read()-before)
	}
	return least
}
