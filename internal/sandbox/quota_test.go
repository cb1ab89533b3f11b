package sandbox

import (
	"testing"

	"ashs/internal/sim"
)

// TestQuotaAdmitChargeRefuse: a tenant runs until its window budget is
// spent, is refused after, and other tenants are unaffected.
func TestQuotaAdmitChargeRefuse(t *testing.T) {
	q := NewQuotaLedger(1000, 300)
	now := sim.Time(10)
	for i := 0; i < 3; i++ {
		if !q.Admit("a", now) {
			t.Fatalf("run %d: tenant a refused under budget", i)
		}
		q.Charge("a", 100)
	}
	if q.Admit("a", now) {
		t.Fatal("tenant a admitted with budget spent")
	}
	if !q.Admit("b", now) {
		t.Fatal("tenant b refused by tenant a's spend")
	}
	if q.Admitted != 4 || q.Refused != 1 {
		t.Fatalf("admitted/refused = %d/%d, want 4/1", q.Admitted, q.Refused)
	}
}

// TestQuotaWindowRoll: spend clears when virtual time crosses into the
// next window, and a run admitted in window N charges window N.
func TestQuotaWindowRoll(t *testing.T) {
	q := NewQuotaLedger(1000, 100)
	if !q.Admit("a", 50) {
		t.Fatal("fresh tenant refused")
	}
	q.Charge("a", 100)
	if q.Admit("a", 900) {
		t.Fatal("admitted inside exhausted window")
	}
	if !q.Admit("a", 1001) {
		t.Fatal("refused after window rolled")
	}
	// The roll cleared the whole spend: 99 more cycles still leave room.
	q.Charge("a", 99)
	if !q.Admit("a", 1002) {
		t.Fatal("spend from the previous window carried over")
	}
}

// TestQuotaUnlimitedDefault: a ledger with no default budget admits
// everything (the zero-cost configuration).
func TestQuotaUnlimitedDefault(t *testing.T) {
	q := NewQuotaLedger(1000, 0)
	for i := 0; i < 10; i++ {
		if !q.Admit("x", sim.Time(i)) {
			t.Fatal("refused with unlimited default")
		}
		q.Charge("x", 1<<20)
	}
	if q.Refused != 0 {
		t.Fatalf("refused = %d, want 0", q.Refused)
	}
}
