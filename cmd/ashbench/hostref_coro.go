//go:build go1.23

package main

import "iter"

// coroSwitches resumes a coroutine n times through iter.Pull, a switch
// each way per resume, and returns what it yielded.
func coroSwitches(n int) uint64 {
	next, stop := iter.Pull(func(yield func(uint64) bool) {
		for i := uint64(0); yield(i); i++ {
		}
	})
	defer stop()
	var sum uint64
	for i := 0; i < n; i++ {
		v, _ := next()
		sum += v
	}
	return sum
}
