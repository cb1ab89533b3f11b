package bench

import (
	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// Mechanism is a message-handling placement compared in Table V.
type Mechanism int

// The four mechanisms of Table V, plus the optimized-sandbox ablation
// this reproduction adds (not a paper column).
const (
	MechUnsafeASH Mechanism = iota
	MechSandboxedASH
	MechUpcall
	MechUserLevel
	MechOptASH // sandboxed with the static-analysis check optimizer
)

var mechNames = [...]string{"unsafe ASH", "sandboxed ASH", "upcall", "user-level", "optimized ASH"}

// Table5 is the remote-increment round-trip comparison (Section V-B,
// Table V): rows are the server process's scheduling state, columns the
// handler placement. The fifth column has no paper counterpart.
type Table5 struct {
	Polling   [5]float64 // us per RT, indexed by Mechanism
	Suspended [5]float64
}

// PaperTable5 is Table V of the paper (four mechanisms; the optimized
// column is rendered without a paper value).
var PaperTable5 = Table5{
	Polling:   [5]float64{147, 152, 191, 182},
	Suspended: [5]float64{147, 151, 193, 247},
}

// table5Cells enumerates one cell per (mechanism, scheduling state).
func table5Cells(iters int) []Cell {
	var cells []Cell
	for m := MechUnsafeASH; m <= MechOptASH; m++ {
		m := m
		cells = append(cells,
			Cell{"table5/" + mechNames[m] + "/polling", func(cfg *Config) any {
				return remoteIncrementRT(cfg, m, false, iters, nil)
			}},
			Cell{"table5/" + mechNames[m] + "/suspended", func(cfg *Config) any {
				return remoteIncrementRT(cfg, m, true, iters, nil)
			}},
		)
	}
	return cells
}

func mergeTable5(vs []any) Table5 {
	var t Table5
	for m := MechUnsafeASH; m <= MechOptASH; m++ {
		t.Polling[m] = vs[2*int(m)].(float64)
		t.Suspended[m] = vs[2*int(m)+1].(float64)
	}
	return t
}

// RunTable5 regenerates Table V.
func RunTable5(cfg *Config, iters int) Table5 {
	return mergeTable5(runCells(cfg, table5Cells(iters)))
}

// remoteIncrementRT measures the round trip of a remote-increment active
// message. The client is a user-level polling process; the server-side
// handling mechanism and scheduling state vary.
func remoteIncrementRT(cfg *Config, mech Mechanism, suspended bool, iters int, o *obsRun) float64 {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	o.attach(tb)
	const vc = 9
	const warmup = 2

	if suspended {
		// "Suspended (interrupts)": the serving application is not
		// polling; wakeups go through the interrupt/reschedule path.
		tb.K2.Sched = aegis.NewPriorityBoost(tb.K2)
		tb.K2.Spawn("competitor", func(p *aegis.Process) { p.SpinForever() })
	}

	// Server side.
	switch mech {
	case MechUnsafeASH, MechSandboxedASH, MechUpcall, MechOptASH:
		owner := tb.K2.Spawn("dsm-app", func(p *aegis.Process) {})
		node := crl.NewNode(tb.Sys2, owner)
		prog := crl.IncrementHandler(node.CounterSeg.Base, tb.A1.Addr(), vc)
		ash := tb.Sys2.MustDownload(owner, prog,
			core.Options{Unsafe: mech == MechUnsafeASH, OptimizeSFI: mech == MechOptASH})
		b, err := tb.A2.BindVC(owner, vc, 8, 4096)
		if err != nil {
			panic(err)
		}
		if mech == MechUpcall {
			// Same handler code, run at user level via the upcall path.
			unsafeAsh := tb.Sys2.MustDownload(owner, prog, core.Options{Unsafe: true})
			b.Upcall = unsafeAsh.AsUpcall()
		} else {
			ash.Attach(b)
		}
	case MechUserLevel:
		tb.K2.Spawn("server", func(p *aegis.Process) {
			ep, err := link.BindAN2(tb.A2, p, vc, 8, 4096)
			if err != nil {
				panic(err)
			}
			counter := p.AS.MustAlloc(64, "counter")
			for i := 0; i < warmup+iters; i++ {
				f := ep.Recv(!suspended)
				// Increment: read the amount, bump, build the reply.
				inc := f.U32(0)
				v, _ := p.AS.Load32(counter.Base)
				_ = p.AS.Store32(counter.Base, v+inc)
				p.Compute(10)
				reply := make([]byte, 4)
				ep.Release(f)
				ep.Send(link.Addr{Port: f.Entry.Src, VC: vc}, reply)
			}
		})
	}

	// Client: user-level polling ping-pong.
	var total, start sim.Time
	done := false
	tb.K1.Spawn("client", func(p *aegis.Process) {
		ep, err := link.BindAN2(tb.A1, p, vc, 8, 4096)
		if err != nil {
			panic(err)
		}
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				start = p.K.Now()
			}
			// The very first message can race the server's VC binding
			// (its process may be queued behind a competitor's quantum);
			// retry on a generous timeout during warmup.
			for {
				ep.Send(link.Addr{Port: tb.A2.Addr(), VC: vc}, []byte{0, 0, 0, 1})
				f, ok := ep.RecvUntil(true, p.K.Now()+tb.Prof.Cycles(50_000))
				if ok {
					ep.Release(f)
					break
				}
			}
		}
		total = p.K.Now() - start
		done = true
	})
	tb.runUntil(func() bool { return done }, 5_000_000_000, 100_000)
	o.window(start, start+total)
	return tb.Us(total) / float64(iters)
}

// Table renders Table V.
func (t Table5) Table() *Table {
	cols := []string{"unsafe ASH", "sandboxed ASH", "upcall", "user-level", "optimized ASH"}
	return &Table{
		Title:   "Table V: remote increment round trip (us)",
		Note:    "optimized ASH is this reproduction's check-elision ablation (no paper value)",
		Columns: cols,
		Format:  "%.0f",
		Rows: []Row{
			{"currently running (polling)", t.Polling[:], PaperTable5.Polling[:4]},
			{"suspended (interrupts)", t.Suspended[:], PaperTable5.Suspended[:4]},
		},
	}
}
