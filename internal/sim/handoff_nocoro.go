//go:build !go1.23

package sim

func newHandoff(body func(yield func())) (resume func()) { return newChanHandoff(body) }
