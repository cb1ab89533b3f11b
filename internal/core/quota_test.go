package core

import (
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
)

// TestQuotaThrottlesTenantASH: a tenant over its windowed cycle budget has
// eager execution refused — its messages degrade to the user-level path
// (ring delivery), nothing is aborted, and the budget refreshes when the
// window rolls.
func TestQuotaThrottlesTenantASH(t *testing.T) {
	tb := newTestbed(t)
	window := sim.Time(tb.k2.Prof.ClockTickCycles)
	// Budget of 1 cycle: the first run is admitted (nothing spent yet),
	// its real cost exhausts the window, every later arrival is refused.
	tb.sys.Quota = sandbox.NewQuotaLedger(window, 1)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	counter := owner.AS.MustAlloc(4096, "counter")
	ash := tb.sys.MustDownload(owner,
		incrementASH(counter.Base, func() (int, int) { return 0, 9 }), Options{})
	ash.Tenant = "t0"
	sb, _ := tb.a2.BindVC(owner, 9, 64, 4096)
	ash.Attach(sb)

	for i := 0; i < 6; i++ {
		tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{0, 0, 0, 1})
	}
	tb.eng.RunUntil(window / 2)
	if ash.Invocations != 1 {
		t.Fatalf("tenant ran %d handlers on a 1-cycle budget, want 1", ash.Invocations)
	}
	if ash.QuotaThrottled != 5 || tb.sys.QuotaThrottled != 5 {
		t.Fatalf("quota throttled %d/%d, want 5/5", ash.QuotaThrottled, tb.sys.QuotaThrottled)
	}
	if sb.Ring().Len() != 5 {
		t.Fatalf("ring has %d fallback messages, want 5 (throttled, not lost)", sb.Ring().Len())
	}

	// Next window: the allowance refreshes.
	tb.eng.RunUntil(window + 1000)
	tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{0, 0, 0, 1})
	tb.eng.Run()
	if ash.Invocations != 2 {
		t.Fatalf("budget did not refresh: %d invocations", ash.Invocations)
	}
}

// TestQuotaIsolatesTenants: one tenant exhausting its budget does not
// throttle another on the same host, and unlabeled handlers bypass the
// ledger entirely.
func TestQuotaIsolatesTenants(t *testing.T) {
	tb := newTestbed(t)
	tb.sys.Quota = sandbox.NewQuotaLedger(sim.Time(tb.k2.Prof.ClockTickCycles), 200)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})

	mk := func(tenant string, vc int) *FuncASH {
		f := tb.sys.NewFuncASH(owner, "fh-"+tenant, false, func(c *Ctx) aegis.Disposition {
			c.Straightline(150, 0)
			return aegis.DispConsumed
		})
		f.Tenant = tenant
		b, err := tb.a2.BindVC(owner, vc, 16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		f.Attach(b)
		return f
	}
	greedy := mk("greedy", 9)
	quiet := mk("quiet", 10)
	plain := mk("", 11) // unlabeled: not metered

	for i := 0; i < 4; i++ {
		tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{1})
	}
	tb.a1.KernelSend(tb.a2.Addr(), 10, []byte{1})
	for i := 0; i < 4; i++ {
		tb.a1.KernelSend(tb.a2.Addr(), 11, []byte{1})
	}
	tb.eng.RunUntil(sim.Time(tb.k2.Prof.ClockTickCycles) / 2)

	// 150 cycles/run against a 200-cycle window: run 1 admitted (0 spent),
	// run 2 admitted (150 < 200), run 3+ refused.
	if greedy.Invocations != 2 || greedy.QuotaThrottled != 2 {
		t.Fatalf("greedy ran %d / throttled %d, want 2/2",
			greedy.Invocations, greedy.QuotaThrottled)
	}
	if quiet.Invocations != 1 || quiet.QuotaThrottled != 0 {
		t.Fatalf("quiet tenant affected by greedy's spend (%d/%d)",
			quiet.Invocations, quiet.QuotaThrottled)
	}
	if plain.Invocations != 4 || plain.QuotaThrottled != 0 {
		t.Fatalf("unlabeled handler metered (%d/%d)",
			plain.Invocations, plain.QuotaThrottled)
	}
}
