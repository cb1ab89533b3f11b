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

// ablationPolicies enumerates the compared safety strategies in render
// order.
func ablationPolicies() []struct {
	label  string
	pol    *sandbox.Policy
	unsafe bool
} {
	mipsTimerOpt := sandbox.DefaultPolicy()
	mipsTimerOpt.Optimize = true
	mipsSoft := sandbox.DefaultPolicy()
	mipsSoft.Budget = sandbox.BudgetSoftware
	mipsSoftOpt := sandbox.DefaultPolicy()
	mipsSoftOpt.Budget = sandbox.BudgetSoftware
	mipsSoftOpt.Optimize = true
	x86 := sandbox.DefaultPolicy()
	x86.Hardware = sandbox.HardwareX86
	return []struct {
		label  string
		pol    *sandbox.Policy
		unsafe bool
	}{
		{"unsafe (no protection)", nil, true},
		{"MIPS SFI + watchdog timer", sandbox.DefaultPolicy(), false},
		{"MIPS SFI + watchdog timer (optimized)", mipsTimerOpt, false},
		{"MIPS SFI + software budget", mipsSoft, false},
		{"MIPS SFI + software budget (optimized)", mipsSoftOpt, false},
		{"x86 segmentation", x86, false},
	}
}

// ablationCell is what one policy's cell measures: both handlers under one
// safety strategy.
type ablationCell struct {
	insns, loop int64
	us          float64
}

// ablationCells enumerates one cell per safety strategy. A cell measures two
// AN2 pairs, the write's then the loop's, so it carries no spec and opens
// each in turn: the first is closed before the second is built, and
// download-churn, which runs these cells twelve times, never holds two.
func ablationCells() []Cell {
	pols := ablationPolicies()
	cells := make([]Cell, len(pols))
	for i, pc := range pols {
		cells[i] = Cell{Label: "ablation/" + pc.label, measure: func(cfg *Config, _ *world) any {
			opts := core.Options{Unsafe: pc.unsafe, Budget: 100000}
			isolated := func(h isolatedHandler, nbytes int) handlerRun {
				return inWorld(cfg, an2Pair, func(w *world) handlerRun {
					return runIsolated(w.tb, pc.pol, opts, h, nbytes)
				})
			}
			write, loop := isolated(trustedWrite, 40), isolated(recordWrite, 0)
			// Every world runs on this profile.
			return ablationCell{insns: write.insns, loop: loop.insns, us: mach.DS5000_240().Us(write.cycles)}
		}}
	}
	return cells
}

func mergeAblation(vs []any) AblationResult {
	r := AblationResult{}
	for i, pc := range ablationPolicies() {
		c := vs[i].(ablationCell)
		r.Labels = append(r.Labels, pc.label)
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
