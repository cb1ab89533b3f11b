package bench

import (
	"fmt"
	"strings"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/proto/ip"
	"ashs/internal/sim"
)

// worldShapes is every shape the builder makes, smallest useful size each.
var worldShapes = []struct {
	name  string
	build func() *world
}{
	{"an2-pair", func() *world { return NewAN2Testbed(&Config{}).world }},
	{"ethernet-pair", func() *world { return NewEthernetTestbed(&Config{}).world }},
	{"fan-in-3", func() *world { return newFanIn(1<<20, 8, 3, scaleClientMem, scaleClientRxBufs) }},
	{"server-only", func() *world { return newFanIn(1<<20, 8, 0, 0, 0) }},
}

// TestPoolLeakGate pins the end-of-cell leak detector both ways on every
// world shape: a drained world with every lease returned passes, and a
// deliberately dropped lease panics with the pool accounting in the
// message. Then the world's own end: close leaves no live process and no
// host memory behind.
func TestPoolLeakGate(t *testing.T) {
	for _, shape := range worldShapes {
		t.Run(shape.name, func(t *testing.T) {
			w := shape.build()
			var never aegis.Cond
			w.hosts[0].k.Spawn("idle", func(p *aegis.Process) { never.Wait(p) })
			w.eng.Go("parked", func(p *sim.Proc) { p.Park() })
			w.run() // drains clean, both processes still waiting
			if live := w.eng.Stats().LiveProcs; live != 2 {
				t.Fatalf("%d live processes before close, want 2", live)
			}

			leaked := w.sw.LeaseData([]byte{1, 2, 3})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("checkPool did not panic on a leaked lease")
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "leaked") {
					t.Fatalf("unexpected panic: %v", r)
				}
				leaked.Release()
				w.checkPool() // released: the gate passes again

				w.close()
				if live := w.eng.Stats().LiveProcs; live != 0 {
					t.Errorf("%d live processes after close", live)
				}
				for _, h := range w.hosts {
					if h.k.Mem.Data != nil || h.k.MemSize() != 0 {
						t.Errorf("host %s keeps its memory after close", h.k.Name)
					}
				}
				w.close() // and once more: a no-op
			}()
			w.checkPool()
		})
	}
}

// TestWorldShape pins what the simulated results depend on: hosts take
// switch ports in creation order with the server first, names and
// addresses follow from that order, and a pair testbed's exported fields
// are the two hosts' parts.
func TestWorldShape(t *testing.T) {
	w := newFanIn(1<<20, 8, 3, scaleClientMem, scaleClientRxBufs)
	if got := w.srv().addr(); got != 0 {
		t.Errorf("server owns switch port %d, want the first (0)", got)
	}
	names := []string{"srv", "c000", "c001", "c002"}
	if len(w.hosts) != len(names) || len(w.cli()) != 3 {
		t.Fatalf("fan-in world has %d hosts, %d clients", len(w.hosts), len(w.cli()))
	}
	for i, h := range w.hosts {
		if h.k.Name != names[i] || h.addr() != i || h.ip != ip.HostAddr(i) {
			t.Errorf("host %d: name %q port %d ip %s", i, h.k.Name, h.addr(), h.ip)
		}
		if la, ok := w.res[h.ip]; !ok || la.Port != i {
			t.Errorf("host %d missing from the resolver (%v, %v)", i, la, ok)
		}
		if h.eth == nil || h.nic != &h.eth.NIC || h.sys == nil || h.sys.K != h.k {
			t.Errorf("host %d: wrong interface or system", i)
		}
	}
	if so := newFanIn(1<<20, 8, 0, 0, 0); len(so.hosts) != 1 || len(so.cli()) != 0 || so.srv().addr() != 0 {
		t.Errorf("server-only world: %d hosts", len(so.hosts))
	}

	for i, tb := range []*Testbed{NewAN2Testbed(nil), NewEthernetTestbed(nil)} {
		h1, h2 := tb.host(1, i == 1), tb.host(2, i == 1)
		if tb.K1 != h1.k || tb.K2 != h2.k || tb.K1.Name != "h1" || tb.K2.Name != "h2" {
			t.Errorf("%s: K1/K2 are not hosts h1/h2", tb.Sw.Cfg.Name)
		}
		if tb.Sys1 != h1.sys || tb.Sys2 != h2.sys || tb.Sys1.K != tb.K1 || tb.Sys2.K != tb.K2 {
			t.Errorf("%s: Sys1/Sys2 not bound to K1/K2", tb.Sw.Cfg.Name)
		}
		if tb.IP1 != ip.HostAddr(0) || tb.IP2 != ip.HostAddr(1) || tb.IP1 != h1.ip || tb.IP2 != h2.ip {
			t.Errorf("%s: IP1/IP2 = %s/%s", tb.Sw.Cfg.Name, tb.IP1, tb.IP2)
		}
		if tb.Eng != tb.eng || tb.Prof != tb.prof || tb.Sw != tb.sw {
			t.Errorf("%s: Eng/Prof/Sw are not the world's", tb.Sw.Cfg.Name)
		}
		if i == 0 {
			if tb.A1 != h1.an2 || tb.A2 != h2.an2 || tb.A1 == nil || tb.A2 == nil || &tb.A1.NIC != h1.nic || &tb.A2.NIC != h2.nic || tb.E1 != nil || tb.E2 != nil || tb.A1.Addr() != 0 || tb.A2.Addr() != 1 {
				t.Error("AN2 pair: wrong interfaces")
			}
		} else if tb.E1 != h1.eth || tb.E2 != h2.eth || tb.E1 == nil || tb.E2 == nil || tb.A1 != nil || tb.A2 != nil || tb.E1.Addr() != 0 || tb.E2.Addr() != 1 {
			t.Error("Ethernet pair: wrong interfaces")
		}
		if tb.K1.MemSize() != aegis.HostMemSize || tb.K2.MemSize() != aegis.HostMemSize {
			t.Errorf("%s: pair hosts are not default-sized", tb.Sw.Cfg.Name)
		}
	}
}

// TestRunUntilBoundPanics: a cell whose predicate never comes true must
// fail loudly at its simulated-time bound, bound in the message, instead
// of returning as if it had a result.
func TestRunUntilBoundPanics(t *testing.T) {
	tb := NewAN2Testbed(nil)
	tb.K1.Spawn("spin", func(p *aegis.Process) { p.SpinForever() })
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "did not complete") || !strings.Contains(msg, "5000 us") {
			t.Fatalf("runUntil past its bound: panic %q, want the 5000 us bound named", msg)
		}
		if now := tb.Us(tb.Eng.Now()); now < 5000 || now > 6000 {
			t.Errorf("stopped at %.0f us, want the bound plus at most one slice", now)
		}
	}()
	tb.runUntil(func() bool { return false }, 5000, 1000)
	t.Fatal("runUntil returned with its predicate still false")
}

// TestWorldReuse: a cell returns what it leased. The first run of a scale
// cell may grow the arena pool; the same cell run again is served entirely
// from what the first gave back, with the same simulated result.
func TestWorldReuse(t *testing.T) {
	first := runScaleCell("tcp-fast", 4, 2)
	warm := aegis.ArenaStats()
	again := runScaleCell("tcp-fast", 4, 2)
	got := aegis.ArenaStats()
	if got.Grown != warm.Grown {
		t.Errorf("second run grew the pool: Grown %d -> %d", warm.Grown, got.Grown)
	}
	if leases := got.Leases - warm.Leases; leases != 5 || got.Returned-warm.Returned != leases {
		t.Errorf("second run leased %d arenas and returned %d, want 5 and 5",
			leases, got.Returned-warm.Returned)
	}
	if first != again {
		t.Errorf("results differ on reused memory:\n%+v\n%+v", first, again)
	}
}
