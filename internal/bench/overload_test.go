package bench

import (
	"testing"
)

// overloadPick finds one cell of a rendered matrix result set.
func overloadPick(t *testing.T, rs []OverloadResult, trace, sched string) OverloadResult {
	t.Helper()
	for _, r := range rs {
		if r.Trace == trace && r.Sched == sched {
			return r
		}
	}
	t.Fatalf("cell %s/%s missing from matrix", trace, sched)
	return OverloadResult{}
}

// TestOverloadGracefulDegradation is the experiment's headline claim: at
// twice the saturating arrival rate, with the whole overload-control plane
// engaged, the system keeps completing work near its peak rate with a
// bounded tail — it degrades, it does not collapse.
func TestOverloadGracefulDegradation(t *testing.T) {
	cfg := &Config{Quick: true}
	rs := as[OverloadResult](cellResults(cfg, overloadCells(cfg)))
	if len(rs) < 12 {
		t.Fatalf("matrix has %d cells, want >= 12", len(rs))
	}

	peak := overloadPick(t, rs, "pois-1x", "baseline")
	over := overloadPick(t, rs, "pois-2x", "baseline")
	deep := overloadPick(t, rs, "pois-4x", "baseline")

	// The saturation point is a healthy operating regime: every offered
	// operation completes.
	if peak.Completed != uint64(peak.Offered) {
		t.Errorf("1x completed %d of %d offered", peak.Completed, peak.Offered)
	}

	// Graceful degradation: goodput at 2x saturation holds at >= 70% of
	// peak goodput.
	if over.GoodputMsgMs < 0.7*peak.GoodputMsgMs {
		t.Errorf("2x goodput %.2f msg/ms < 70%% of peak %.2f msg/ms",
			over.GoodputMsgMs, peak.GoodputMsgMs)
	}

	// The tail stays bounded: p99 completion latency under 2x overload is
	// within the client's backoff cap plus a round trip, not a queueing
	// blowup.
	if over.P99Us > 2*overloadBackoffCapUs {
		t.Errorf("2x p99 = %.1f us, want <= %.1f us (2x backoff cap)",
			over.P99Us, float64(2*overloadBackoffCapUs))
	}

	// The hold is the control plane's doing, not luck: overload engages
	// tenant quota throttling at 2x and ring admission control by 4x, and
	// throttled work really is served by the lazy path.
	if over.QuotaThrottled == 0 {
		t.Error("2x overload never engaged tenant quota throttling")
	}
	if over.LazyServed == 0 {
		t.Error("2x overload never served a throttled request lazily")
	}
	if deep.Sheds == 0 {
		t.Error("4x overload never engaged ring admission control")
	}
	// Nothing vanished silently at baseline: no fault plane, so the only
	// losses are the control plane's own deliberate sheds.
	for _, r := range []OverloadResult{peak, over, deep} {
		if r.PoolDrops != 0 || r.InjectedDrops != 0 || r.CRCDrops != 0 {
			t.Errorf("%s/%s: unexplained drops pool=%d injected=%d crc=%d",
				r.Trace, r.Sched, r.PoolDrops, r.InjectedDrops, r.CRCDrops)
		}
	}

	// The adversarial shapes engage admission control too: a flash crowd's
	// synchronized burst must hit the ring watermark.
	flash := overloadPick(t, rs, "flashcrowd", "baseline")
	if flash.Sheds == 0 {
		t.Error("flash crowd never engaged ring admission control")
	}
}

// TestOverloadParallelByteIdentical: the rendered matrix is byte-identical
// at every parallelism level — the determinism contract of the suite.
func TestOverloadParallelByteIdentical(t *testing.T) {
	render := func(par int) string {
		cfg := &Config{Quick: true, Parallel: par}
		return RenderOverload(as[OverloadResult](cellResults(cfg, overloadCells(cfg))))
	}
	serial := render(1)
	for _, par := range []int{4, 8} {
		if got := render(par); got != serial {
			t.Fatalf("-parallel %d diverged from serial:\n%s\n---\n%s", par, got, serial)
		}
	}
}
