package workload

import (
	"math"
	"sort"

	"ashs/internal/sim"
)

// Spec parameterizes a generator. All generators are open-loop: arrival
// times come from the spec's rate, never from the system under test.
type Spec struct {
	// Clients is the fleet size; events carry client indices [0, Clients).
	Clients int
	// Events is the total number of arrivals to generate.
	Events int
	// MeanGapUs is the mean inter-arrival gap across the whole fleet, in
	// microseconds: the offered load is 1/MeanGapUs msgs/us. Halving it
	// doubles the load, which is how the overload matrix drives the
	// system past saturation.
	MeanGapUs float64
	// Size is the payload size (the mean, for heavy-tailed sizes).
	Size int
	// MaxSize bounds heavy-tailed payloads (0 = 16*Size).
	MaxSize int
}

// Generator names one arrival-schedule shape.
type Generator struct {
	Name string
	// Gen builds a trace from a seed; equal (seed, spec) pairs yield
	// equal traces.
	Gen func(seed int64, s Spec) *Trace
}

// Generators returns the adversarial shapes in presentation order.
func Generators() []Generator {
	return []Generator{
		{"poisson", Poisson},
		{"heavytail", HeavyTail},
		{"flashcrowd", FlashCrowd},
		{"incast", Incast},
	}
}

// expGap draws an exponential inter-arrival gap with the given mean.
func expGap(rng *sim.Rand, meanUs float64) float64 {
	// -mean * ln(1-u); u in [0,1) keeps the argument in (0,1].
	return -meanUs * math.Log(1-rng.Float64())
}

// finish orders events by (time, client) and stamps each one's
// conversation with its client index — one conversation per client, the
// relay workload's natural keying.
func finish(evs []Event) *Trace {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].AtUs != evs[j].AtUs {
			return evs[i].AtUs < evs[j].AtUs
		}
		return evs[i].Client < evs[j].Client
	})
	for i := range evs {
		evs[i].Conv = uint32(evs[i].Client)
	}
	return &Trace{Events: evs}
}

// Poisson is the memoryless open-loop baseline: exponential fleet-wide
// gaps, arrivals assigned to uniformly random clients, fixed sizes.
func Poisson(seed int64, s Spec) *Trace {
	rng := sim.NewRand(seed)
	evs := make([]Event, 0, s.Events)
	at := 0.0
	for i := 0; i < s.Events; i++ {
		at += expGap(rng, s.MeanGapUs)
		evs = append(evs, Event{AtUs: at, Client: rng.Intn(s.Clients), Size: s.Size})
	}
	return finish(evs)
}

// HeavyTail keeps Poisson arrivals but draws sizes from a bounded Pareto
// (alpha 1.2) between Size and MaxSize: most messages are small, a few
// are enormous, and the big ones monopolize handler cycles — the
// heavy-tailed service-time distribution behind most tail-latency pain.
func HeavyTail(seed int64, s Spec) *Trace {
	const alpha = 1.2
	rng := sim.NewRand(seed)
	lo, hi := float64(s.Size), float64(s.MaxSize)
	if hi <= lo {
		hi = 16 * lo
	}
	evs := make([]Event, 0, s.Events)
	at := 0.0
	for i := 0; i < s.Events; i++ {
		at += expGap(rng, s.MeanGapUs)
		// Inverse-CDF bounded Pareto.
		u := rng.Float64()
		la, ha := math.Pow(lo, alpha), math.Pow(hi, alpha)
		size := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
		if size > hi {
			size = hi
		}
		evs = append(evs, Event{AtUs: at, Client: rng.Intn(s.Clients), Size: int(size)})
	}
	return finish(evs)
}

// FlashCrowd runs at the spec rate, except for a window in the middle
// third of the schedule where the rate jumps 10x — the thundering-herd
// arrival of a link going viral, hitting a system provisioned for the
// shoulder load.
func FlashCrowd(seed int64, s Spec) *Trace {
	const crowd = 10
	rng := sim.NewRand(seed)
	// Total quiet+crowd schedule spans roughly Events*MeanGapUs/2.
	span := float64(s.Events) * s.MeanGapUs / 2
	crowdStart, crowdEnd := span/3, span/2
	evs := make([]Event, 0, s.Events)
	at := 0.0
	for i := 0; i < s.Events; i++ {
		gap := s.MeanGapUs
		if at >= crowdStart && at < crowdEnd {
			gap /= crowd
		}
		at += expGap(rng, gap)
		evs = append(evs, Event{AtUs: at, Client: rng.Intn(s.Clients), Size: s.Size})
	}
	return finish(evs)
}

// Incast fires the whole fleet at once: waves in which every client
// injects one message at the same instant (the storage/partition-
// aggregate fan-in), spaced by the recovery gap the spec's rate implies.
// Without jittered backoff, the retries of a clipped wave re-collide.
func Incast(seed int64, s Spec) *Trace {
	rng := sim.NewRand(seed)
	waves := s.Events / s.Clients
	if waves == 0 {
		waves = 1
	}
	waveGap := s.MeanGapUs * float64(s.Clients)
	evs := make([]Event, 0, waves*s.Clients)
	at := 0.0
	for w := 0; w < waves; w++ {
		at += expGap(rng, waveGap)
		for c := 0; c < s.Clients; c++ {
			evs = append(evs, Event{AtUs: at, Client: c, Size: s.Size})
		}
	}
	return finish(evs)
}
