//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// newHandoff makes body a coroutine of its caller. The first call of resume
// starts body; each call returns when body calls yield or returns, and each
// yield returns at the next resume. Exactly one side runs at a time. body
// must not panic, and resume must not be called again once body has
// returned. Successive resumes may come from different goroutines, the
// engine's or a blocked process's driving the loop (Engine.drive); yield
// returns to whichever made the last.
//
// iter.Pull switches straight from one goroutine to the other
// (runtime.coroswitch): no run queue, no wake-up of a second thread. The
// go1.23 build constraint also raises this file's language version, which
// is what lets it import iter while go.mod stays at go 1.22.
//
// The coroutine comes from a process-wide pool. One whose body has ended —
// returned, or unwound by Engine.Close — goes back to it and runs the body
// of the next newHandoff, from any engine: its goroutine, and the stack it
// grew firing callbacks for a blocked process (Proc.block), serve the next
// process instead of a new goroutine growing a stack of its own.
func newHandoff(body func(yield func())) (resume func()) {
	c := getCoro()
	c.body = body
	return c.resume
}

// coro is a pooled coroutine: a goroutine inside iter.Pull that runs one
// body after another.
type coro struct {
	next   func() (struct{}, bool)
	body   func(yield func()) // nil while the coroutine is idle
	yield  func()             // what every body it runs yields with
	resume func()             // c.step, bound once
}

// coros holds the idle coroutines. Engines that run on parallel goroutines
// share it, so it is a mutex and a free list, like aegis's arenas.
var coros struct {
	sync.Mutex
	free []*coro
}

// getCoro takes an idle coroutine from the pool, or starts a new one.
func getCoro() *coro {
	coros.Lock()
	if n := len(coros.free); n > 0 {
		c := coros.free[n-1]
		coros.free[n-1] = nil
		coros.free = coros.free[:n-1]
		coros.Unlock()
		return c
	}
	coros.Unlock()
	c := new(coro)
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = func() { yield(struct{}{}) }
		for {
			c.body(c.yield)
			c.body = nil
			yield(struct{}{})
		}
	})
	c.resume = c.step
	return c
}

// step runs the coroutine until its body yields or ends. A coroutine whose
// body ended goes back to the pool here, on the resuming side: only once
// next has returned is it parked, and safe for another engine to take.
func (c *coro) step() {
	c.next()
	if c.body == nil {
		coros.Lock()
		coros.free = append(coros.free, c)
		coros.Unlock()
	}
}

// PooledCoroutines reports how many idle coroutines the pool holds.
func PooledCoroutines() int {
	coros.Lock()
	defer coros.Unlock()
	return len(coros.free)
}
