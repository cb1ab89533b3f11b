package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/mach"
)

// Fig4Point is the remote-increment round trip with n active processes on
// the serving host, for the three systems of Fig. 4.
type Fig4Point struct {
	Procs     int
	ASH       float64 // us: handled in the kernel, scheduler-independent
	Oblivious float64 // us: user level under Aegis' oblivious round-robin
	Ultrix    float64 // us: user level under an Ultrix-like boosting scheduler
}

// Fig4 is the scheduling-decoupling experiment (Section V-C).
type Fig4 struct {
	Points []Fig4Point
}

// fig4Cells enumerates one cell per (process count, system).
func fig4Cells(maxProcs, iters int) []Cell {
	var cells []Cell
	for n := 1; n <= maxProcs; n++ {
		for _, system := range []string{"ash", "oblivious", "ultrix"} {
			cells = append(cells, pairCell(fmt.Sprintf("fig4/%d-procs/%s", n, system), an2Pair,
				func(tb *Testbed) any { return fig4RT(tb, n, system, iters) }))
		}
	}
	return cells
}

func mergeFig4(maxProcs int, vs []any) Fig4 {
	var out Fig4
	for n := 1; n <= maxProcs; n++ {
		i := (n - 1) * 3
		out.Points = append(out.Points, Fig4Point{
			Procs:     n,
			ASH:       vs[i].(float64),
			Oblivious: vs[i+1].(float64),
			Ultrix:    vs[i+2].(float64),
		})
	}
	return out
}

// fig4RT measures the remote-increment RT with n processes active on the
// server: the receiving application plus n-1 compute-bound competitors.
func fig4RT(tb *Testbed, n int, system string, iters int) float64 {
	if system == "ultrix" {
		// The Ultrix-style scheduler "raises the priority of a process
		// immediately after a network interrupt", but every kernel
		// operation costs Ultrix-class cycles (an order of magnitude over
		// Aegis: Section V's discussion of kernel crossing costs). A world
		// has one profile, shared by both kernels and the switch, so the
		// client host and the wire pay Ultrix-class costs as well.
		tb.K2.Sched = aegis.NewPriorityBoost(tb.K2)
		ultrixify(tb.Prof)
	}

	// Competitors: n-1 compute-bound processes on the serving host.
	for i := 1; i < n; i++ {
		tb.K2.Spawn(fmt.Sprintf("competitor-%d", i), func(p *aegis.Process) {
			p.SpinForever()
		})
	}
	if system == "ash" {
		installIncrement(tb, core.Options{}, false)
	} else {
		incrementServer(tb, false, iters) // interrupt-driven wait
	}
	// Round-robin waits grow with n; retry and bound the run generously.
	r := incrementClient(tb, iters, 400_000)
	tb.runUntil(func() bool { return r.done }, 60_000_000_000, 100_000)
	return tb.Us(r.total) / float64(iters)
}

// ultrixify scales the kernel-operation costs of a profile to Ultrix-class
// values (the paper: Aegis' crossings are "an order of magnitude better
// than a run-of-the-mill UNIX system like Ultrix", and taking an interrupt
// plus re-entering via syscall costs ~95 us there vs ~35 us on Aegis).
func ultrixify(p *mach.Profile) {
	p.SyscallCycles *= 4
	p.InterruptCycles *= 10
	p.CrossingCycles *= 10
	p.SchedDecision += p.UltrixExtraCrossing
	p.RingUpdateCycles *= 4
	p.BufferMgmtCycles *= 2
	p.DeviceRxService *= 3
	p.DeviceTxSetup *= 3
}

// Render draws the three series.
func (f Fig4) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 4: remote-increment RT (us) vs number of active processes on the server\n")
	b.WriteString("  (paper: ASH flat; oblivious round-robin grows with n; Ultrix-like boost\n")
	b.WriteString("   scheduler reduced but still affected)\n")
	fmt.Fprintf(&b, "  %6s  %12s  %14s  %12s\n", "procs", "ASH", "oblivious RR", "Ultrix-like")
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "  %6d  %12.0f  %14.0f  %12.0f\n", pt.Procs, pt.ASH, pt.Oblivious, pt.Ultrix)
	}
	return b.String()
}
