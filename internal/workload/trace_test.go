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

// TestGeneratorsWellFormed: every generator's output passes the codec
// validation (ordered times, bounded sizes and clients) and keeps
// clients inside the fleet.
func TestGeneratorsWellFormed(t *testing.T) {
	for _, g := range Generators() {
		tr := g.Gen(3, testSpec)
		if len(tr.Events) == 0 {
			t.Fatalf("%s: empty trace", g.Name)
		}
		if err := tr.validate(); err != nil {
			t.Fatalf("%s: invalid trace: %v", g.Name, err)
		}
		for i, e := range tr.Events {
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

// TestEncodeParseRoundTrip: Parse(Encode(t)) == t, including float bits.
func TestEncodeParseRoundTrip(t *testing.T) {
	for _, g := range Generators() {
		tr := g.Gen(5, testSpec)
		got, err := Parse(tr.Encode())
		if err != nil {
			t.Fatalf("%s: parse: %v", g.Name, err)
		}
		if got.Name != tr.Name || len(got.Events) != len(tr.Events) {
			t.Fatalf("%s: round trip changed shape", g.Name)
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				t.Fatalf("%s: event %d changed in round trip", g.Name, i)
			}
		}
	}
}

// TestParseRejects enumerates malformed encodings the decoder must turn
// away: each one is a real hazard for a parser fed stored trace files.
func TestParseRejects(t *testing.T) {
	// Unnamed single-event trace: header 6 bytes, count at [6:10], the
	// event's time/client/size fields at 10/18/22.
	valid := (&Trace{Events: []Event{{AtUs: 1, Client: 0, Size: 8}}}).Encode()
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version": mutate(func(b []byte) []byte { b[4] = 9; return b }),
		"truncated":   valid[:len(valid)-3],
		"trailing":    append(append([]byte(nil), valid...), 0),
		"nan time": mutate(func(b []byte) []byte {
			putU64(b[10:], math.Float64bits(math.NaN()))
			return b
		}),
		"negative time": mutate(func(b []byte) []byte {
			putU64(b[10:], math.Float64bits(-1))
			return b
		}),
		"zero size": mutate(func(b []byte) []byte {
			b[22], b[23], b[24], b[25] = 0, 0, 0, 0
			return b
		}),
	}
	for name, enc := range cases {
		if _, err := Parse(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Decreasing times.
	enc := (&Trace{Events: []Event{{AtUs: 5, Size: 8}, {AtUs: 5, Size: 8}}}).Encode()
	putU64(enc[10+eventBytes:], math.Float64bits(4))
	if _, err := Parse(enc); err == nil {
		t.Errorf("decreasing times accepted")
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}
