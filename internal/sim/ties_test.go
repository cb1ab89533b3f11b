package sim

import (
	"fmt"
	"strings"
	"testing"
)

// tieSeeds are the permutations of equal-time events the tie tests run.
var tieSeeds = []uint64{1, 2, 3}

// tieEngine is an engine on the heap with its ties permuted by seed. Every
// wake-up is queued: the elision's guard (strictly before everything
// queued) assumes that an equal-time event fires first.
func tieEngine(seed uint64) (*Engine, *heapQueue) {
	h := &heapQueue{tieSeed: seed}
	e := newEngineWithQueue(h)
	e.neverElide = true
	return e, h
}

// closedClean requires Close to have ended every process and drained the
// queue.
func closedClean(t *testing.T, what string, e *Engine) {
	t.Helper()
	if live, pending := e.Stats().LiveProcs, e.Pending(); live != 0 || pending != 0 {
		t.Errorf("%s: after Close %d processes live, %d events pending", what, live, pending)
	}
}

// TestTiePermutedScenario runs the handoff scenario with its equal-time
// events in three seeded orders. What it prints may move, and for some seed
// it must, or the permutation tested nothing; what must not is the run
// ending in the one panic it was written to end in, and Close ending every
// process it leaves.
func TestTiePermutedScenario(t *testing.T) {
	fifo := newEngineWithQueue(newHeapQueue())
	fifo.neverElide = true
	var want strings.Builder
	handoffScenario(fifo, &want)
	fifo.Close()
	moved := false
	for _, seed := range tieSeeds {
		e, h := tieEngine(seed)
		var log strings.Builder
		_, _, panicked := handoffScenario(e, &log)
		if err, ok := panicked.(error); !ok || !strings.Contains(err.Error(), `process "bad" panicked: boom`) {
			t.Errorf("tie seed %d: Run panicked with %v, want the process's error", seed, panicked)
		}
		e.Close()
		closedClean(t, fmt.Sprint("tie seed ", seed), e)
		moved = moved || log.String() != want.String()
		t.Logf("tie seed %d: %d tie groups", seed, h.ties)
	}
	if !moved {
		t.Error("every tie seed ran the scenario in FIFO order")
	}
}

// TestTiePermutedElideSchedules runs elideSchedule's random worlds with
// their ties in three seeded orders: none may panic, and Close must end
// every process and leave nothing queued.
func TestTiePermutedElideSchedules(t *testing.T) {
	for _, seed := range tieSeeds {
		ties := 0
		for world := uint64(1); world <= 100; world++ {
			e, h := tieEngine(seed)
			what := fmt.Sprintf("tie seed %d, world %d", seed, world)
			var trace strings.Builder
			if v := catchPanic(func() { elideSchedule(e, world, &trace) }); v != nil {
				t.Fatalf("%s panicked: %v\n%s", what, v, trace.String())
			}
			e.Close()
			closedClean(t, what, e)
			ties += h.ties
		}
		if ties == 0 {
			t.Errorf("tie seed %d: no tie groups over 100 worlds", seed)
		}
		t.Logf("tie seed %d: %d tie groups over 100 worlds", seed, ties)
	}
}
