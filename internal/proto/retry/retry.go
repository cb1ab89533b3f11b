// Package retry implements deterministic jittered exponential backoff
// with hard retry budgets — the client side of the overload-control
// plane. Under incast, a synchronized loss synchronizes the retries too:
// every client times out together, retransmits together, and collides
// again, amplifying the very burst that caused the loss. The classic
// fixes are (a) jitter, so retry instants spread over the backoff window,
// and (b) a retry budget, so a client that keeps losing stops adding
// offered load instead of doubling it forever.
//
// Both must stay deterministic here: the simulator's byte-identity
// contract forbids wall-clock or global-PRNG jitter. Jitter therefore
// draws from a seeded splitmix64 stream (sim.Rand), and the *first* retry
// uses the client's van der Corput radical inverse instead of a random
// draw: bit-reversing the client index spreads clients 0..N-1 across the
// backoff window in low-discrepancy order, so any two distinct clients
// among the first N are at least 1/N of the window apart — collision-free
// de-synchronization by construction, not by luck. Subsequent retries are
// already de-synchronized by history and use the seeded stream.
package retry

import (
	"math/bits"

	"ashs/internal/sim"
)

// Policy describes one backoff schedule: the pre-jitter delay before the
// k-th retry is BaseUs*2^(k-1), capped at CapUs, and at most Budget
// retries are allowed before the caller must give up.
type Policy struct {
	// BaseUs is the pre-jitter delay before the first retry.
	BaseUs float64
	// CapUs bounds the pre-jitter delay (0 = 8*BaseUs).
	CapUs float64
	// Budget is the number of retries allowed per operation. Zero means
	// no retries at all: the first timeout is final.
	Budget int
}

// jitter is a deterministic jitter-fraction stream for one client. The
// first fraction is the client's van der Corput slot (see the package
// comment); later fractions come from the seeded splitmix64 stream.
type jitter struct {
	client uint32
	rng    sim.Rand
	drawn  bool
}

// newJitter builds the stream for client index `client` of a fleet,
// derived from the run seed. Equal (seed, client) pairs yield equal
// streams; distinct clients get well-separated first fractions.
func newJitter(seed int64, client int) jitter {
	mix := (uint64(uint32(client)) + 1) * 0x9e3779b97f4a7c15
	return jitter{
		client: uint32(client),
		rng:    *sim.NewRand(seed ^ int64(mix)),
	}
}

// frac returns the next jitter fraction in [0, 1).
func (j *jitter) frac() float64 {
	if !j.drawn {
		j.drawn = true
		// Radical-inverse base 2 of the client index, perturbed by less
		// than 2^-32 so distinct seeds still differ, never enough to move
		// a client out of its 1/N stratum for any fleet of N <= 2^31.
		vdc := float64(bits.Reverse32(j.client)) / (1 << 32)
		return vdc + j.rng.Float64()/(1<<32)
	}
	return j.rng.Float64()
}

// State tracks one client's backoff schedule and retry budget. The jitter
// stream persists across operations (Reset), so repeated operations keep
// drawing fresh fractions; the budget is per operation.
type State struct {
	Pol Policy
	// Used counts retries consumed since the last Reset.
	Used int

	j jitter
}

// New builds the backoff state for client `client` under pol, seeded by
// the run seed. It is a plain value, jitter stream included, so an
// operation record embeds it and building one allocates nothing; a copy
// draws its own continuation of the stream.
func New(pol Policy, seed int64, client int) State {
	return State{Pol: pol, j: newJitter(seed, client)}
}

// Next returns the jittered delay in microseconds to wait before the next
// retry, or ok=false when the retry budget is exhausted. The delay uses
// equal jitter: half the backed-off interval held firm, half spread by
// the jitter fraction, so the retry lands in [d/2, d).
func (s *State) Next() (us float64, ok bool) {
	if s.Used >= s.Pol.Budget {
		return 0, false
	}
	d := s.Pol.BaseUs
	for i := 0; i < s.Used; i++ {
		d *= 2
	}
	cap := s.Pol.CapUs
	if cap <= 0 {
		cap = 8 * s.Pol.BaseUs
	}
	if d > cap {
		d = cap
	}
	s.Used++
	return d/2 + d/2*s.j.frac(), true
}

// Reset starts a new operation: the retry budget refills, the jitter
// stream continues where it left off.
func (s *State) Reset() { s.Used = 0 }
