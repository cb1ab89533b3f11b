//go:build !go1.23

package main

// coroSwitches hands a value to a goroutine and back n times: before
// go1.23 there is no iter.Pull, and sim.Proc hands off over channels too.
func coroSwitches(n int) uint64 {
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	defer close(ping)
	var sum uint64
	for i := 0; i < n; i++ {
		ping <- uint64(i)
		sum += <-pong
	}
	return sum
}
