package main

import (
	"math"
	"syscall"
	"time"
)

// The reference VM runs at two speeds. The same binary's run medians sit
// 23-27 % apart for minutes at a time (a register-only spin loop shows the
// same two levels), and busier neighbours stretch a repetition further. A
// time metric that follows the host this closely cannot tell a regression
// from the hour of day, so every repetition also times a fixed piece of work
// that touches no repository code, just before and just after its job, and
// the time metrics are divided by how much slower than nominal that work ran.
//
// The work has three parts, one per way the workloads spend host time:
// integer arithmetic in registers, first touch of freshly mapped memory
// (page faults and zeroing: world builds), and goroutine handoffs over
// unbuffered channels (what sim.Proc does on every simulated context switch).
// Over 12-second windows each part correlates 0.8-0.9 with the workloads
// that lean on it; their geometric mean brought the window-to-window spread
// of rtt-small, tcp-bulk and fanin from 9-15 % down to 8 % in a noisy hour.

// refSample is one timing of the reference work, in nanoseconds per part.
type refSample struct {
	SpinNs    int64 `json:"spin_ns"`
	TouchNs   int64 `json:"touch_ns"`
	HandoffNs int64 `json:"handoff_ns"`
}

// refNominal is the reference work on the reference VM in its fast state;
// it anchors the normalized metrics to that machine's seconds.
var refNominal = refSample{SpinNs: 55e6, TouchNs: 19e6, HandoffNs: 11e6}

var refSink uint64

// hostRef runs the reference work once.
func hostRef() refSample {
	var s refSample

	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	s.SpinNs = time.Since(start).Nanoseconds()

	// Mapped and unmapped directly, so the job's heap and its peak
	// resident set never see the reference's memory.
	start = time.Now()
	for i := 0; i < 6; i++ {
		block, err := syscall.Mmap(-1, 0, 8<<20, // one simulated host's memory
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		for j := 0; j < len(block); j += 4096 {
			block[j] = 1
		}
		if err := syscall.Munmap(block); err != nil {
			panic(err)
		}
	}
	s.TouchNs = time.Since(start).Nanoseconds()

	start = time.Now()
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	for i := 0; i < 30_000; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping) // the echo goroutine's range ends and it exits
	s.HandoffNs = time.Since(start).Nanoseconds()
	return s
}

// hostSlowdown is how much slower than nominal the reference work ran over
// a measurement's repetitions: the geometric mean, over the three parts, of
// the median sample divided by the nominal time. 1 is the reference VM in
// its fast state. With no samples (in-process test repetitions) it is 1.
func hostSlowdown(reps []*repResult) float64 {
	var spin, touch, handoff []float64
	for _, r := range reps {
		for _, s := range r.Ref {
			spin = append(spin, float64(s.SpinNs))
			touch = append(touch, float64(s.TouchNs))
			handoff = append(handoff, float64(s.HandoffNs))
		}
	}
	if len(spin) == 0 {
		return 1
	}
	return math.Cbrt(median(spin) / float64(refNominal.SpinNs) *
		median(touch) / float64(refNominal.TouchNs) *
		median(handoff) / float64(refNominal.HandoffNs))
}
