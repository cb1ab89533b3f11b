package core

import (
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
)

// TestHandlerBaseParity: the quota refusal and the abort trip are one
// block of code shared by ASH and FuncASH, so the same arrivals must leave
// the same System counters, the same handler statistics and the same
// binding state whichever kind of handler is installed.
func TestHandlerBaseParity(t *testing.T) {
	type state struct {
		SysQuotaThrottled, SysInvoluntary, SysFallbacks, SysTripped uint64
		Invocations, QuotaThrottled, InvolAborts                    uint64
		Tripped, Installed                                          bool
		RingLen                                                     int
		Rx                                                          aegis.RxStats
	}
	run := func(t *testing.T, install func(tb *testbed, owner *aegis.Process, b *aegis.Binding) *handler) (afterQuota, afterTrip state) {
		tb := newTestbed(t)
		window := sim.Time(tb.k2.Prof.ClockTickCycles)
		owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
		b, err := tb.a2.BindVC(owner, 9, 16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		h := install(tb, owner, b)
		h.Tenant = "t0"
		snap := func() state {
			return state{tb.sys.QuotaThrottled, tb.sys.InvoluntaryAborts, tb.sys.AbortFallbacks, tb.sys.TrippedHandlers,
				h.Invocations, h.QuotaThrottled, h.InvolAborts,
				h.Tripped, b.Handler != nil, b.Ring.Len(), tb.a2.Rx}
		}
		send := func(n int) {
			for i := 0; i < n; i++ {
				tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{0, 0, 0, 1})
			}
		}

		// A 1-cycle budget admits the window's first run and refuses the rest.
		tb.sys.Quota = sandbox.NewQuotaLedger(window, 1)
		send(4)
		tb.eng.RunUntil(window / 2)
		afterQuota = snap()

		// Every run now aborts; the second abort trips the handler off the
		// binding and the third message meets no handler at all.
		tb.sys.Quota = nil
		tb.sys.AbortTripThreshold = 2
		tb.sys.InjectAbort = func(string) (AbortMode, int64) { return AbortBudget, 2 }
		send(3)
		tb.eng.Run()
		return afterQuota, snap()
	}

	ashQ, ashT := run(t, func(tb *testbed, owner *aegis.Process, b *aegis.Binding) *handler {
		counter := owner.AS.MustAlloc(4096, "counter")
		a := tb.sys.MustDownload(owner, incrementASH(counter.Base, func() (int, int) { return 0, 9 }), Options{})
		a.Attach(b)
		return &a.handler
	})
	funcQ, funcT := run(t, func(tb *testbed, owner *aegis.Process, b *aegis.Binding) *handler {
		f := tb.sys.NewFuncASH(owner, "fh", true, func(c *Ctx) aegis.Disposition {
			c.Straightline(20, 4)
			return aegis.DispConsumed
		})
		f.Attach(b)
		return &f.handler
	})

	wantQ := state{SysQuotaThrottled: 3, Invocations: 1, QuotaThrottled: 3, Installed: true, RingLen: 3,
		Rx: aegis.RxStats{Delivered: 4}}
	wantT := state{SysQuotaThrottled: 3, SysInvoluntary: 2, SysFallbacks: 2, SysTripped: 1,
		Invocations: 3, QuotaThrottled: 3, InvolAborts: 2, Tripped: true, Installed: false, RingLen: 6,
		Rx: aegis.RxStats{Delivered: 7}}
	for _, c := range []struct {
		name      string
		got, want state
	}{
		{"ASH after quota refusals", ashQ, wantQ}, {"FuncASH after quota refusals", funcQ, wantQ},
		{"ASH after the trip", ashT, wantT}, {"FuncASH after the trip", funcT, wantT},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
}
