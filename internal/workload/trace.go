// Package workload defines the open-loop workload trace and its
// deterministic, seedable adversarial generators. A Trace is an open-loop arrival
// schedule: each event says *when* a client injects a message of *what
// size* into *which conversation*, independent of how the system is
// coping — the ATLAHS argument (PAPERS.md) is that exactly these
// application-centric schedules (heavy tails, flash crowds, incast) are
// where simulators diverge from reality, because a closed-loop workload
// politely slows down when the system saturates.
//
// A trace is the value its generator returns: the overload experiment
// (internal/bench/overload.go) and the megascale fleets replay it
// directly. No trace is stored or read from a file.
package workload

// Event is one open-loop arrival.
type Event struct {
	// AtUs is the scheduled injection time, microseconds from trace
	// start. Events are ordered by AtUs (ties broken by Client).
	AtUs float64
	// Client is the injecting endpoint's index in the fleet.
	Client int
	// Size is the message payload size in bytes.
	Size int
	// Conv is the conversation (relay queue) the message belongs to.
	Conv uint32
}

// Trace is a replayable arrival schedule.
type Trace struct {
	Events []Event
}

// Duration reports the last event's time (0 for an empty trace).
func (t *Trace) Duration() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].AtUs
}
