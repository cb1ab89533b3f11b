//go:build !go1.23

package sim

func newHandoff(body func(yield func())) (resume func()) { return newChanHandoff(body) }

// PooledCoroutines reports how many idle coroutines the pool holds: the
// channel handoff pools nothing.
func PooledCoroutines() int { return 0 }
