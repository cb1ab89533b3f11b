//go:build go1.23

package sim

import "iter"

// newHandoff makes body a coroutine of its caller. The first call of resume
// starts body; each call returns when body calls yield or returns, and each
// yield returns at the next resume. Exactly one side runs at a time. body
// must not panic, and resume must not be called again once body has
// returned.
//
// iter.Pull switches straight from one goroutine to the other
// (runtime.coroswitch): no run queue, no wake-up of a second thread. The
// go1.23 build constraint also raises this file's language version, which
// is what lets it import iter while go.mod stays at go 1.22.
func newHandoff(body func(yield func())) (resume func()) {
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		body(func() { yield(struct{}{}) })
	})
	return func() { next() }
}
