package workload

import (
	"math"
	"testing"
)

var testSpec = Spec{Clients: 8, Events: 500, MeanGapUs: 40, Size: 256, MaxSize: 4096}

// TestGeneratorsDeterministic: equal (seed, spec) pairs yield equal
// traces; distinct seeds yield distinct schedules.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range Generators() {
		a := g.Gen(7, testSpec)
		b := g.Gen(7, testSpec)
		if len(a.Events) != len(b.Events) {
			t.Fatalf("%s: reruns differ in length: %d vs %d", g.Name, len(a.Events), len(b.Events))
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("%s: event %d differs across reruns", g.Name, i)
			}
		}
		c := g.Gen(8, testSpec)
		same := len(a.Events) == len(c.Events)
		if same {
			for i := range a.Events {
				if a.Events[i] != c.Events[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 produced identical traces", g.Name)
		}
	}
}

// TestGeneratorsWellFormed: every generator's output is a schedule a
// replay can follow: finite times from zero that never go backwards,
// sizes in [1, MaxSize], and clients inside the fleet, each its own
// conversation.
func TestGeneratorsWellFormed(t *testing.T) {
	for _, g := range Generators() {
		tr := g.Gen(3, testSpec)
		if len(tr.Events) == 0 {
			t.Fatalf("%s: empty trace", g.Name)
		}
		prev := 0.0
		for i, e := range tr.Events {
			if math.IsNaN(e.AtUs) || math.IsInf(e.AtUs, 0) || e.AtUs < prev {
				t.Fatalf("%s: event %d: time %v after %v", g.Name, i, e.AtUs, prev)
			}
			prev = e.AtUs
			if e.Size < 1 || e.Size > testSpec.MaxSize {
				t.Fatalf("%s: event %d: size %d outside [1, %d]", g.Name, i, e.Size, testSpec.MaxSize)
			}
			if e.Client < 0 || e.Client >= testSpec.Clients {
				t.Fatalf("%s: event %d: client %d outside fleet", g.Name, i, e.Client)
			}
			if e.Conv != uint32(e.Client) {
				t.Fatalf("%s: event %d: conv %d != client %d", g.Name, i, e.Conv, e.Client)
			}
		}
	}
}

// TestGeneratorShapes spot-checks each generator's defining property.
func TestGeneratorShapes(t *testing.T) {
	// Incast: exactly Clients events share each wave instant.
	in := Incast(1, testSpec)
	waves := map[float64]int{}
	for _, e := range in.Events {
		waves[e.AtUs]++
	}
	for at, n := range waves {
		if n != testSpec.Clients {
			t.Fatalf("incast: wave at %v has %d arrivals, want %d", at, n, testSpec.Clients)
		}
	}

	// HeavyTail: sizes spread beyond the mean; at least one big outlier.
	ht := HeavyTail(1, testSpec)
	maxSize := 0
	for _, e := range ht.Events {
		if e.Size > maxSize {
			maxSize = e.Size
		}
		if e.Size < testSpec.Size || e.Size > testSpec.MaxSize {
			t.Fatalf("heavytail: size %d outside [%d, %d]", e.Size, testSpec.Size, testSpec.MaxSize)
		}
	}
	if maxSize < 4*testSpec.Size {
		t.Fatalf("heavytail: max size %d shows no tail", maxSize)
	}

	// FlashCrowd: the crowd window (same formula as the generator) holds
	// far more than its share of arrivals.
	fc := FlashCrowd(1, testSpec)
	span := float64(testSpec.Events) * testSpec.MeanGapUs / 2
	var inWin int
	for _, e := range fc.Events {
		if e.AtUs >= span/3 && e.AtUs < span/2 {
			inWin++
		}
	}
	winFrac := float64(inWin) / float64(len(fc.Events))
	if winFrac < 0.3 {
		t.Fatalf("flashcrowd: only %.0f%% of arrivals in the crowd window", 100*winFrac)
	}
}
