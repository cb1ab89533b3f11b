package sim

// newChanHandoff is the handoff built from a goroutine and two unbuffered
// channels: every switch is a send, a receive and a trip through the Go
// scheduler. It is the fallback for toolchains without iter.Pull and the
// reference the differential tests run the coroutine handoff against; it
// has the contract documented on newHandoff.
func newChanHandoff(body func(yield func())) (resume func()) {
	in, out := make(chan struct{}), make(chan struct{})
	go func() {
		<-in
		defer func() { out <- struct{}{} }()
		body(func() {
			out <- struct{}{}
			<-in
		})
	}()
	return func() {
		in <- struct{}{}
		<-out
	}
}
