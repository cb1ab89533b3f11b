package sandbox

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
	"ashs/internal/vcode/reopt"
)

// FuzzReoptProfile attacks the DCG loop from the profile side: the
// program is a random verifiable one, but the profile is raw fuzzer
// bytes — arbitrary counts, arbitrary invocation totals, lengths that
// disagree with the program. The re-optimizer must treat any such
// profile as (at most) a hint: instrumentation must still verify, and
// the three-way equivalence (and region confinement under starved
// budgets) must hold exactly as it does for measured profiles.

// profileFromBytes decodes raw fuzzer bytes into a profile for p. The
// first byte skews the counts-vector length away from len(p.Insns) (the
// interesting adversarial case: profiles from a different program
// version); the rest becomes counters, cycled, with an empty input
// yielding the all-zero profile.
func profileFromBytes(p *vcode.Program, raw []byte) *reopt.Profile {
	n := len(p.Insns)
	if len(raw) > 0 {
		n += int(raw[0]%15) - 7 // length skew in [-7, +7]
		if n < 0 {
			n = 0
		}
	}
	counts := make([]uint64, n)
	if len(raw) > 1 {
		body := raw[1:]
		var chunk [8]byte
		for i := range counts {
			for j := range chunk {
				chunk[j] = body[(i*8+j)%len(body)]
			}
			counts[i] = binary.LittleEndian.Uint64(chunk[:])
		}
	}
	var invocations uint64
	for i := range counts {
		invocations ^= counts[i]
	}
	return &reopt.Profile{Handler: p.Name, Invocations: invocations, Counts: counts}
}

func reoptProfileSeed(t *testing.T, seed int64, raw []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := genProgram(rng)
	prof := profileFromBytes(p, raw)
	mode := BudgetTimer
	if seed%2 == 0 {
		mode = BudgetSoftware
	}
	out, err := ThreeWay(p, prof, DiffConfig{Budget: mode})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.Bound(p, fuzzBoundMsg); err == nil {
		if err := CheckBound(p, mode, out, fuzzBoundMsg); err != nil {
			t.Fatal(err)
		}
	}
	if mode == BudgetSoftware {
		for _, b := range []int64{5, 60} {
			_, err := ThreeWay(p, prof, DiffConfig{
				Budget: mode, InsnBudget: b, ConfinementOnly: true,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func FuzzReoptProfile(f *testing.F) {
	sat := make([]byte, 64)
	for i := range sat {
		sat[i] = 0xff
	}
	// The committed corpus (testdata/fuzz/FuzzReoptProfile) pins the
	// adversarial shapes by name; these keep the in-code seeds in sync.
	f.Add(int64(0), []byte{})                           // all-zero profile
	f.Add(int64(1), sat)                                // saturated counters
	f.Add(int64(2), []byte{14, 1, 0, 0, 0, 0, 0, 0, 0}) // too-long vector, count=1 (sub-Hot)
	f.Add(int64(3), []byte{0, 8, 0, 0, 0, 0, 0, 0, 0})  // too-short vector, count=Hot
	f.Add(int64(42), []byte{7, 0xde, 0xad, 0xbe, 0xef}) // ragged cycle
	f.Add(int64(-9), []byte{3, 0xff, 0, 0xff, 0, 0xff}) // alternating hot/cold
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		reoptProfileSeed(t, seed, raw)
	})
}

// TestReoptProfileSeeds drives the committed corpus shapes under `go
// test` (the fuzz engine only replays them under -fuzz).
func TestReoptProfileSeeds(t *testing.T) {
	sat := make([]byte, 64)
	for i := range sat {
		sat[i] = 0xff
	}
	cases := []struct {
		seed int64
		raw  []byte
	}{
		{0, nil}, {1, sat},
		{2, []byte{14, 1, 0, 0, 0, 0, 0, 0, 0}},
		{3, []byte{0, 8, 0, 0, 0, 0, 0, 0, 0}},
		{42, []byte{7, 0xde, 0xad, 0xbe, 0xef}},
		{-9, []byte{3, 0xff, 0, 0xff, 0, 0xff}},
	}
	for _, c := range cases {
		reoptProfileSeed(t, c.seed, c.raw)
	}
}
