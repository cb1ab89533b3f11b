package bench

import (
	"ashs/internal/core"
	"ashs/internal/mach"
	"ashs/internal/sandbox"
)

// AblationResult compares the safety strategies of Section III-B on the
// same handlers (the trusted remote write, 40-byte payload, and the
// fixed-record copy loop):
//
//   - unsafe: no protection (the baseline);
//   - MIPS + timer: SFI memory checks, watchdog timer bounds runtime
//     (the paper's prototype);
//   - MIPS + software budget: SFI plus counter checks at backward jumps;
//   - optimized variants: the same policies with the static-analysis
//     check optimizer (elision, hoisting, budget coarsening);
//   - x86 segmentation: verification only, hardware isolates
//     ("almost no software checks are needed").
type AblationResult struct {
	Labels    []string
	Insns     []int64   // trusted write: dynamic instructions per invocation
	LoopInsns []int64   // record-copy loop: dynamic instructions per invocation
	Us        []float64 // trusted-write handler path time per invocation
}

// ablationStrategies are the compared safety strategies in render order.
// The zero Policy is the system's default: MIPS SFI with the watchdog
// timer.
var ablationStrategies = []struct {
	label string
	ablationRun
}{
	{"unsafe (no protection)", ablationRun{unsafe: true}},
	{"MIPS SFI + watchdog timer", ablationRun{}},
	{"MIPS SFI + watchdog timer (optimized)", ablationRun{pol: sandbox.Policy{Optimize: true}}},
	{"MIPS SFI + software budget", ablationRun{pol: sandbox.Policy{Budget: sandbox.BudgetSoftware}}},
	{"MIPS SFI + software budget (optimized)", ablationRun{pol: sandbox.Policy{Budget: sandbox.BudgetSoftware, Optimize: true}}},
	{"x86 segmentation", ablationRun{pol: sandbox.Policy{Hardware: sandbox.HardwareX86}}},
}

// ablationCell is what one strategy's cell measures: both handlers under
// it.
type ablationCell struct {
	insns, loop int64
	us          float64
}

// ablationRun measures both handlers under one safety strategy: downloads
// under pol, or unsafe. It measures two AN2 pairs, the write's then the
// loop's, so its cell carries no spec and opens each in turn: the first is
// closed before the second is built, and download-churn, which runs these
// cells twelve times, never holds two.
type ablationRun struct {
	pol    sandbox.Policy
	unsafe bool
}

func (d ablationRun) drive(cfg *Config, _ *world) any {
	opts := core.Options{Unsafe: d.unsafe, Budget: 100000}
	run := func(h isolatedHandler, nbytes int) handlerRun {
		return onWorld("", an2Pair, isolated{h, opts, nbytes, d.pol}).Run(cfg).(handlerRun)
	}
	write, loop := run(trustedWrite, 40), run(recordWrite, 0)
	// Every world runs on this profile.
	return ablationCell{insns: write.insns, loop: loop.insns, us: mach.DS5000_240().Us(write.cycles)}
}

// ablationCells enumerates one cell per safety strategy.
func ablationCells() []Cell {
	cells := make([]Cell, len(ablationStrategies))
	for i, st := range ablationStrategies {
		cells[i] = Cell{Label: "ablation/" + st.label, drive: st.ablationRun}
	}
	return cells
}

func mergeAblation(vs []any) AblationResult {
	r := AblationResult{}
	for i, st := range ablationStrategies {
		c := vs[i].(ablationCell)
		r.Labels = append(r.Labels, st.label)
		r.Insns = append(r.Insns, c.insns)
		r.LoopInsns = append(r.LoopInsns, c.loop)
		r.Us = append(r.Us, c.us)
	}
	return r
}

// Table renders the ablation.
func (r AblationResult) Table() *Table {
	tab := &Table{
		Title:   "Ablation: safety strategies of Section III-B (trusted remote write 40 B; record-copy loop)",
		Columns: []string{"write insns", "loop insns", "us/invocation"},
		Format:  "%.2f",
	}
	for i, l := range r.Labels {
		tab.Rows = append(tab.Rows, Row{
			Label:    l,
			Measured: []float64{float64(r.Insns[i]), float64(r.LoopInsns[i]), r.Us[i]},
		})
	}
	return tab
}
