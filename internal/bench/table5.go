package bench

import (
	"ashs/internal/aegis"
	"ashs/internal/core"
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

	if suspended {
		// "Suspended (interrupts)": the serving application is not
		// polling; wakeups go through the interrupt/reschedule path.
		tb.K2.Sched = aegis.NewPriorityBoost(tb.K2)
		tb.K2.Spawn("competitor", func(p *aegis.Process) { p.SpinForever() })
	}
	if mech == MechUserLevel {
		incrementServer(tb, !suspended, iters)
	} else {
		installIncrement(tb, core.Options{Unsafe: mech == MechUnsafeASH, OptimizeSFI: mech == MechOptASH},
			mech == MechUpcall)
	}
	r := incrementClient(tb, iters, 50_000)
	tb.runUntil(func() bool { return r.done }, 5_000_000_000, 100_000)
	o.window(r.start, r.start+r.total)
	return tb.Us(r.total) / float64(iters)
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
