package retry

import "testing"

// TestSeedDeterminism pins the contract the overload experiment's
// byte-identity depends on: identical (policy, seed, client) triples
// produce identical backoff sequences, retry by retry, across ops.
func TestSeedDeterminism(t *testing.T) {
	pol := Policy{BaseUs: 1000, CapUs: 16_000, Budget: 6}
	a := New(pol, 42, 7)
	b := New(pol, 42, 7)
	for op := 0; op < 3; op++ {
		for {
			ua, oka := a.Next()
			ub, okb := b.Next()
			if oka != okb || ua != ub {
				t.Fatalf("op %d: sequences diverged: (%v,%v) vs (%v,%v)",
					op, ua, oka, ub, okb)
			}
			if !oka {
				break
			}
		}
		a.Reset()
		b.Reset()
	}

	c := New(pol, 43, 7)
	ua, _ := a.Next()
	uc, _ := c.Next()
	if ua == uc {
		t.Fatalf("distinct seeds produced identical first delays (%v)", ua)
	}
}

// TestBudgetExhausts checks the retry budget is a hard stop and that the
// pre-jitter schedule doubles up to the cap: every delay sits in
// [d/2, d) for its backed-off interval d.
func TestBudgetExhausts(t *testing.T) {
	pol := Policy{BaseUs: 1000, CapUs: 4000, Budget: 5}
	s := New(pol, 1, 0)
	want := []float64{1000, 2000, 4000, 4000, 4000} // capped doubling
	for i, d := range want {
		us, ok := s.Next()
		if !ok {
			t.Fatalf("retry %d refused inside budget", i)
		}
		if us < d/2 || us >= d {
			t.Fatalf("retry %d delay %v outside [%v, %v)", i, us, d/2, d)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("retry allowed beyond budget")
	}
	s.Reset()
	if _, ok := s.Next(); !ok {
		t.Fatal("Reset did not refill the budget")
	}
}

// TestFirstRetryDesync is the incast de-synchronization property: at
// N=64 clients sharing one seed, no two clients land in the same
// first-retry slot. The van der Corput construction makes this hold by
// construction (clients 0..63 are >= span/64 apart; the slot width is
// span/128), not probabilistically — so the test is exact, and any
// change to the jitter derivation that breaks it fails loudly.
func TestFirstRetryDesync(t *testing.T) {
	const n = 64
	pol := Policy{BaseUs: 1000, CapUs: 8000, Budget: 3}
	span := pol.BaseUs / 2  // jittered part of the first delay
	width := span / (2 * n) // slot width: half a stratum
	for _, seed := range []int64{1, 2, 99} {
		seen := map[int]int{}
		for c := 0; c < n; c++ {
			s := New(pol, seed, c)
			us, ok := s.Next()
			if !ok {
				t.Fatalf("client %d: no first retry", c)
			}
			slot := int(us / width)
			if prev, dup := seen[slot]; dup {
				t.Fatalf("seed %d: clients %d and %d share first-retry slot %d",
					seed, prev, c, slot)
			}
			seen[slot] = c
		}
	}
}

// TestStateIsAPlainValue: building a backoff state and drawing from it
// allocates nothing, so an operation record that embeds one costs no
// object per operation.
func TestStateIsAPlainValue(t *testing.T) {
	pol := Policy{BaseUs: 1000, Budget: 4}
	var s State
	if n := testing.AllocsPerRun(100, func() {
		s = New(pol, 7, 3)
		s.Next()
		s.Next()
	}); n != 0 {
		t.Fatalf("New + Next allocate %v objects, want 0", n)
	}
}
