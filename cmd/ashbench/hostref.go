package main

import (
	"fmt"
	"syscall"
	"time"
)

// The host this runs on changes speed under it (a shared VM runs at two
// speeds minutes apart), so a wall time alone cannot tell a faster
// simulator from a faster hour. ashbench therefore times a fixed piece of
// work that touches no simulator code, just before and just after the
// experiments, and prints it beside the process's resource usage on the
// [go host …] line; bench.sh divides wall times by it.
//
// The work has three parts, one per way the simulator spends host time:
// integer arithmetic in registers, first touch of freshly mapped memory
// (page faults and zeroing: world builds), and coroutine switches through
// iter.Pull (what a sim.Proc does on every simulated context switch).

// hostRef is one timing of the reference work, per part.
type hostRef struct{ spin, touch, coro time.Duration }

var refSink uint64

// timeHostRef runs the reference work once, about 20 ms on a 2-vCPU VM.
func timeHostRef() hostRef {
	var r hostRef
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 5_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	r.spin = time.Since(start)

	// Mapped and unmapped directly, so the heap and the peak resident set
	// the line reports never see the reference's memory.
	start = time.Now()
	for i := 0; i < 2; i++ {
		block, err := syscall.Mmap(-1, 0, 4<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			fatalf("host reference: %v", err)
		}
		for j := 0; j < len(block); j += 4096 {
			block[j] = 1
		}
		if err := syscall.Munmap(block); err != nil {
			fatalf("host reference: %v", err)
		}
	}
	r.touch = time.Since(start)

	start = time.Now()
	refSink += coroSwitches(20_000)
	r.coro = time.Since(start)
	return r
}

func (r hostRef) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("%.2f ms spin, %.2f ms touch, %.2f ms coroutine", ms(r.spin), ms(r.touch), ms(r.coro))
}

// hostLine is the [go host …] line: the process's user and system CPU
// time and peak resident set (getrusage), and the reference work timed
// before and after the experiments.
func hostLine(before, after hostRef) string {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	sec := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return fmt.Sprintf("[go host: %.3f s user, %.3f s sys, %.1f MiB max RSS; reference before %v; after %v]",
		sec(ru.Utime), sec(ru.Stime), float64(ru.Maxrss)/1024, before, after)
}
