package bench

import (
	"fmt"
	"strings"

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

// fig4Cells enumerates one cell per (process count, system): n active
// processes on the serving host, the receiving application plus n-1
// compute-bound competitors. The ASH is handled in the kernel; the other
// two systems serve at user level, interrupt-driven. The Ultrix-style
// scheduler "raises the priority of a process immediately after a network
// interrupt", but every kernel operation costs Ultrix-class cycles (an
// order of magnitude over Aegis: Section V's discussion of kernel crossing
// costs). A world has one profile, shared by both kernels and the switch,
// so the client host and the wire pay Ultrix-class costs as well.
// Round-robin waits grow with n; the client retries and the run is bounded
// generously.
func fig4Cells(maxProcs, iters int) []Cell {
	var cells []Cell
	for n := 1; n <= maxProcs; n++ {
		ash := remoteIncrement{mech: MechSandboxedASH, iters: iters, competitors: n - 1, numbered: true,
			timeoutUs: 400_000, boundUs: 60_000_000_000}
		oblivious := ash
		oblivious.mech = MechUserLevel
		ultrix := oblivious
		ultrix.boost, ultrix.ultrix = true, true
		label := fmt.Sprintf("fig4/%d-procs/", n)
		cells = append(cells, onWorld(label+"ash", an2Pair, ash), onWorld(label+"oblivious", an2Pair, oblivious),
			onWorld(label+"ultrix", an2Pair, ultrix))
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

// ultrixify scales the kernel-operation costs of a profile to Ultrix-class
// values (the paper: Aegis' crossings are "an order of magnitude better
// than a run-of-the-mill UNIX system like Ultrix", and taking an interrupt
// plus re-entering via syscall costs ~95 us there vs ~35 us on Aegis).
func ultrixify(p *mach.Profile) {
	p.SyscallCycles *= 4
	p.InterruptCycles *= 10
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
