package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// specKey prints one worldSpec field as comparable text: a set pointer
// prints what it points to, nil prints <nil>.
func specKey(f reflect.Value) string {
	if f.Kind() == reflect.Pointer && !f.IsNil() {
		f = f.Elem()
	}
	return fmt.Sprintf("%+v", f)
}

// worldCells is every registered cell that builds a world, quick cells or
// full, in registry order. Nothing is built.
func worldCells(quick bool) []Cell {
	var cells []Cell
	for _, e := range Experiments() {
		for _, c := range e.Cells(&Config{Quick: quick}) {
			if c.spec != nil {
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// worldShapes is the first quick cell to carry each distinct spec: every
// world the suite builds, fault, quota and ARP variants included.
func worldShapes() []Cell {
	var shapes []Cell
	seen := map[string]bool{}
	for _, c := range worldCells(true) {
		v := reflect.ValueOf(*c.spec)
		var key strings.Builder
		for f := 0; f < v.NumField(); f++ {
			key.WriteString(specKey(v.Field(f)) + ";")
		}
		if !seen[key.String()] {
			seen[key.String()] = true
			shapes = append(shapes, c)
		}
	}
	return shapes
}

// TestWorldSpecFieldsInUse: every field of worldSpec takes at least two
// values across the registered cells, quick and full. A field that only one
// value is given is a constant, and belongs in build.
func TestWorldSpecFieldsInUse(t *testing.T) {
	typ := reflect.TypeOf(worldSpec{})
	values := make([]map[string]bool, typ.NumField())
	for i := range values {
		values[i] = map[string]bool{}
	}
	for _, c := range append(worldCells(true), worldCells(false)...) {
		v := reflect.ValueOf(*c.spec)
		for i := range values {
			values[i][specKey(v.Field(i))] = true
		}
	}
	for i, vs := range values {
		if len(vs) < 2 {
			t.Errorf("worldSpec.%s takes one value in every registered cell (%v): make it a constant",
				typ.Field(i).Name, vs)
		}
	}
}

// TestPoolLeakGate pins the end-of-cell leak detector both ways on every
// world shape: a drained world with every lease returned passes, and a
// deliberately dropped lease panics with the pool accounting in the
// message. Then the world's own end: close leaves no live process and no
// host memory behind.
func TestPoolLeakGate(t *testing.T) {
	for _, c := range worldShapes() {
		t.Run(c.Label, func(t *testing.T) {
			w := build(nil, *c.spec)
			daemons := w.eng.Stats().LiveProcs // an ARP pair's
			var never aegis.Ring
			w.hosts[0].k.Spawn("idle", func(p *aegis.Process) { never.WaitRecvUntil(p, 0) })
			w.eng.Go("parked", func(p *sim.Proc) { p.Park() })
			w.run() // drains clean, both processes still waiting
			if live := w.eng.Stats().LiveProcs; live != daemons+2 {
				t.Fatalf("%d live processes before close, want %d", live, daemons+2)
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

// TestWorldShape pins what the simulated results depend on, on every world
// shape: hosts take switch ports in creation order with the server first,
// names, addresses and memory follow from that order and the spec, and the
// ARP daemons, fault hooks, trip threshold and quota are on exactly the
// hosts the spec names. Then a pair testbed's exported fields are the two
// hosts' parts.
func TestWorldShape(t *testing.T) {
	for _, c := range worldShapes() {
		s, label := *c.spec, c.Label
		w := build(nil, s)
		names, mems := []string{"h1", "h2"}, []int{aegis.HostMemSize, aegis.HostMemSize}
		if s.fanIn {
			names, mems = []string{"srv"}, []int{s.srvMem}
			for c := 0; c < s.clients; c++ {
				names, mems = append(names, fmt.Sprintf("c%03d", c)), append(mems, s.cliMem)
			}
		}
		if len(w.hosts) != len(names) || (w.tb != nil) == s.fanIn {
			t.Errorf("%s: %d hosts, Testbed view %v", label, len(w.hosts), w.tb != nil)
		}
		for j, h := range w.hosts[:min(len(w.hosts), len(names))] {
			if h.k.Name != names[j] || h.addr() != j || h.ip != ip.HostAddr(j) || h.k.MemSize() != mems[j] {
				t.Errorf("%s: host %d is %q on port %d at %s with %d bytes", label, j, h.k.Name, h.addr(), h.ip, h.k.MemSize())
			}
			if (h.eth != nil) != s.eth || (h.an2 != nil) == s.eth || h.sys == nil || h.sys.K != h.k ||
				(s.eth && h.nic != &h.eth.NIC) || (!s.eth && h.nic != &h.an2.NIC) {
				t.Errorf("%s: host %d: wrong interface or system", label, j)
			}
			if la, err := w.res.Resolve(nil, h.ip); (err == nil) != s.eth || (err == nil && la != (link.Addr{Port: j})) {
				t.Errorf("%s: host %d resolves to %+v, %v", label, j, la, err)
			}
			faulted := s.fault != nil && (j == 0 || !s.fault.serverOnly)
			if (h.arp != nil) != s.arp || (h.nic.InjectFault != nil) != faulted || (h.sys.InjectAbort != nil) != faulted ||
				h.sys.AbortTripThreshold != s.tripThreshold || (h.sys.Quota != nil) != (s.quota != nil && j == 0) {
				t.Errorf("%s: host %d: arp %v, fault hooks %v/%v, trip %d, quota %v",
					label, j, h.arp != nil, h.nic.InjectFault != nil, h.sys.InjectAbort != nil,
					h.sys.AbortTripThreshold, h.sys.Quota != nil)
			}
		}
		// Nothing past the last port resolves, nor an address outside 10/8.
		for _, dst := range []ip.Addr{ip.HostAddr(w.sw.NumPorts()), ip.V4(192, 168, 0, 1)} {
			if la, err := w.res.Resolve(nil, dst); err == nil || !strings.Contains(err.Error(), "no route") {
				t.Errorf("%s: %s resolves to %+v, %v; want no route", label, dst, la, err)
			}
		}
		if f := s.fault; (w.fault != nil) != (f != nil) || (w.sw.Inject != nil) != (f != nil) ||
			(f != nil && (w.fault.Seed != f.seed || w.fault.Sched != f.sched)) {
			t.Errorf("%s: fault plane %+v on the wire %v, spec %+v", label, w.fault, w.sw.Inject != nil, f)
		}
		w.close()
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
		if tb.Eng != tb.eng || tb.Prof != tb.prof || tb.Sw != tb.sw || tb.world.tb != tb {
			t.Errorf("%s: Eng/Prof/Sw are not the world's", tb.Sw.Cfg.Name)
		}
		if i == 0 {
			if tb.A1 != h1.an2 || tb.A2 != h2.an2 || tb.A1 == nil || tb.A2 == nil || tb.E1 != nil || tb.E2 != nil || tb.A1.Addr() != 0 || tb.A2.Addr() != 1 {
				t.Error("AN2 pair: wrong interfaces")
			}
		} else if tb.E1 != h1.eth || tb.E2 != h2.eth || tb.E1 == nil || tb.E2 == nil || tb.A1 != nil || tb.A2 != nil || tb.E1.Addr() != 0 || tb.E2.Addr() != 1 {
			t.Error("Ethernet pair: wrong interfaces")
		}
		tb.Close()
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
	cell := scaleCell("tcp-fast", 4, 2)
	first := cell.Run(nil)
	warm := aegis.ArenaStats()
	again := cell.Run(nil)
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

// TestCellEngineCounts: a cell's schedule counts are its own. Run alone
// under a fresh config, every cell reports what it reports inside a
// parallel run of its experiment, and the experiment's Output.Engines is
// their sum. An ablation cell opens two worlds, one after the other.
func TestCellEngineCounts(t *testing.T) {
	for name, worlds := range map[string]uint64{"table5": 1, "ablation": 2} {
		selected, _ := FindExperiments([]string{name})
		cfg := &Config{Quick: true, Parallel: 4}
		cells := selected[0].Cells(cfg)
		_, ccs := runCells(cfg, cells)
		var sum EngineCounts
		for i, c := range cells {
			alone := &Config{Quick: true}
			c.Run(alone)
			if alone.engines != ccs[i].engines || alone.engines.Closed != worlds {
				t.Errorf("%s: alone %+v, in the pool %+v; want %d worlds closed", c.Label, alone.engines, ccs[i].engines, worlds)
			}
			sum = sum.Add(alone.engines)
		}
		if out := RunExperiments(cfg, selected)[0]; out.Engines != sum {
			t.Errorf("%s: Output.Engines %+v, want the cells' sum %+v", name, out.Engines, sum)
		}
	}
}

// TestQueueShapes gates the schedule the engine's small set is sized to:
// no world of the two-host experiments ever has more events pending than
// the set holds, so none spills onto the timing wheel, and every crowded
// experiment does spill, each engine at most once (the spill is one-way).
// A two-host world that grows a ninth pending event fails here rather than
// quietly running on the wheel.
func TestQueueShapes(t *testing.T) {
	crowded := map[string]bool{"overload": true, "scale": true, "megascale": true}
	names := []string{"table1", "table5", "table6", "chaos", "overload", "scale"}
	if !raceEnabled {
		names = append(names, "megascale")
	}
	selected, _ := FindExperiments(names)
	for _, out := range RunExperiments(&Config{Quick: true, Parallel: 2}, selected) {
		c := out.Engines
		if c.Closed == 0 || crowded[out.Name] && (c.Spills == 0 || c.Spills > c.Closed) || !crowded[out.Name] && c.Spills != 0 {
			t.Errorf("%s: %d of %d engines spilled onto the wheel", out.Name, c.Spills, c.Closed)
		}
		t.Logf("%s: %d of %d engines spilled", out.Name, c.Spills, c.Closed)
	}
}

// TestWorldCloseCounts: close adds the engine to the config the world was
// built with, once per world; a world built with a nil config closes
// without panicking and counts nowhere.
func TestWorldCloseCounts(t *testing.T) {
	build(nil, an2Pair).close()
	cfg := &Config{}
	for range 2 {
		w := build(cfg, an2Pair)
		w.run()
		w.close()
	}
	if cfg.engines.Closed != 2 {
		t.Errorf("%d worlds counted, want 2", cfg.engines.Closed)
	}
}

// TestHostMemoryFitsItsLargestCell: a fan-in world's hosts are sized to
// what they use. For each workload of each fan-in experiment it runs the
// last, largest full cell and requires every host's brk — its peak, since
// the allocator only bumps — to stay within 80 % of its memory, the
// server's and each client's, so a workload that outgrows a host fails
// here rather than in the middle of a run. The race detector adds nothing
// to a single-goroutine measurement and multiplies the 10^6-filter world's
// footprint, so the plain run alone takes it.
func TestHostMemoryFitsItsLargestCell(t *testing.T) {
	if raceEnabled {
		t.Skip("sized by the run without -race")
	}
	var fanIn []Cell
	for _, c := range worldCells(false) {
		if c.spec.fanIn {
			fanIn = append(fanIn, c)
		}
	}
	// A workload's cells are enumerated together, smallest first.
	group := func(c Cell) string { return c.Label[:strings.LastIndexByte(c.Label, '/')] }
	cfg := &Config{}
	for i, c := range fanIn {
		if i+1 < len(fanIn) && group(fanIn[i+1]) == group(c) {
			continue
		}
		// The server's brk, then the largest client's.
		brk := inWorld(cfg, *c.spec, func(w *world) [2]int {
			c.drive.drive(cfg, w)
			b := [2]int{len(w.srv().k.Mem.Data), 0}
			for _, h := range w.cli() {
				b[1] = max(b[1], len(h.k.Mem.Data))
			}
			return b
		})
		for _, h := range []struct {
			name     string
			brk, mem int
		}{{"server", brk[0], c.spec.srvMem}, {"client", brk[1], c.spec.cliMem}} {
			if h.mem == 0 {
				continue // no clients: a flyweight fleet
			}
			share := float64(h.brk) / float64(h.mem)
			t.Logf("%s: %s brk %d B of %d KiB (%.1f %%)", c.Label, h.name, h.brk, h.mem>>10, 100*share)
			if share > 0.8 {
				t.Errorf("%s: %s brk %d B is %.1f %% of its %d KiB, want at most 80 %%",
					c.Label, h.name, h.brk, 100*share, h.mem>>10)
			}
		}
	}
}
