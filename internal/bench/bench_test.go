package bench

import (
	"math"
	"strings"
	"testing"
)

// within asserts |got-want|/want <= tol.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.2f, paper %.2f (outside %.0f%%)", name, got, want, tol*100)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := RunTable1(nil, 10)
	within(t, "in-kernel AN2", r.InKernelAN2, PaperTable1.InKernelAN2, 0.05)
	within(t, "user-level AN2", r.UserAN2, PaperTable1.UserAN2, 0.05)
	within(t, "Ethernet", r.Ethernet, PaperTable1.Ethernet, 0.05)
}

func TestFig3Shape(t *testing.T) {
	f := mergeFig3(cellResults(nil, fig3Cells(48)))
	// Monotone non-decreasing with size; approaches the 16.8 MB/s ceiling.
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].MBps+0.01 < f.Points[i-1].MBps {
			t.Fatalf("throughput dropped between %d and %d bytes",
				f.Points[i-1].Size, f.Points[i].Size)
		}
	}
	last := f.Points[len(f.Points)-1]
	within(t, "4-KB throughput", last.MBps, PaperFig3Max, 0.05)
}

func TestTable2Shape(t *testing.T) {
	p := Table2Params{LatIters: 8, UDPTrains: 10, TCPBytes: 2 << 20}
	r := mergeTable2(cellResults(nil, table2Cells(p)))
	rows := r.Rows

	// Latencies within 10% of the paper across the AN2 rows.
	for i := 0; i < 4; i++ {
		within(t, rows[i].Label+" UDP lat", rows[i].UDPLat, PaperTable2[i].UDPLat, 0.10)
		within(t, rows[i].Label+" TCP lat", rows[i].TCPLat, PaperTable2[i].TCPLat, 0.10)
	}
	// Orderings the paper's analysis depends on.
	if !(rows[0].UDPTput > rows[2].UDPTput) {
		t.Error("eliminating the copy did not raise UDP throughput")
	}
	ratio := rows[0].UDPTput / rows[2].UDPTput
	if ratio < 1.05 || ratio > 1.5 {
		t.Errorf("no-copy UDP gain = %.2fx, paper: 1.1-1.4x", ratio)
	}
	if !(rows[2].UDPTput > rows[3].UDPTput) {
		t.Error("checksumming did not lower UDP throughput")
	}
	if !(rows[0].TCPTput > rows[3].TCPTput) {
		t.Error("in-place no-checksum TCP not fastest")
	}
	if !(rows[1].TCPLat > rows[0].TCPLat+30) {
		t.Error("TCP checksum latency penalty missing")
	}
	// Ethernet is bandwidth-bound near 1 MB/s.
	within(t, "Ethernet UDP tput", rows[4].UDPTput, PaperTable2[4].UDPTput, 0.25)
	within(t, "Ethernet TCP tput", rows[4].TCPTput, PaperTable2[4].TCPTput, 0.25)
}

func TestTable3MatchesPaper(t *testing.T) {
	r := cellResults(nil, table3Cells())[0].(Table3)
	within(t, "single copy", r.SingleCopy, PaperTable3.SingleCopy, 0.05)
	// The paper's claims: a second copy degrades throughput by ~1.4x
	// cached and ~2x uncached.
	cachedFactor := r.SingleCopy / r.DoubleCopy
	uncachedFactor := r.SingleCopy / r.DoubleUncached
	if cachedFactor < 1.3 || cachedFactor > 1.75 {
		t.Errorf("cached double-copy factor = %.2f, paper ~1.4", cachedFactor)
	}
	if uncachedFactor < 1.8 || uncachedFactor > 2.2 {
		t.Errorf("uncached double-copy factor = %.2f, paper ~2", uncachedFactor)
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	r := mergeTable4(cellResults(nil, table4Cells()))
	for i, label := range []string{"copy&cksum", "copy&cksum&bswap"} {
		within(t, "separate "+label, r.Separate[i], PaperTable4.Separate[i], 0.12)
		within(t, "separate/uncached "+label, r.SeparateUncached[i], PaperTable4.SeparateUncached[i], 0.18)
		within(t, "C integrated "+label, r.CIntegrated[i], PaperTable4.CIntegrated[i], 0.12)
		within(t, "DILP "+label, r.DILP[i], PaperTable4.DILP[i], 0.16)
		// Integration must win by the paper's ~1.4-1.6x.
		benefit := r.DILP[i] / r.Separate[i]
		if benefit < 1.25 || benefit > 1.75 {
			t.Errorf("%s integration benefit = %.2fx, paper ~1.4-1.6x", label, benefit)
		}
		// DILP within a few percent of the hand-integrated loop.
		if math.Abs(r.DILP[i]-r.CIntegrated[i])/r.CIntegrated[i] > 0.06 {
			t.Errorf("%s: DILP %.1f vs hand %.1f — should be nearly equal", label, r.DILP[i], r.CIntegrated[i])
		}
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	r := RunTable5(nil, 8)
	for m := MechUnsafeASH; m <= MechUserLevel; m++ {
		within(t, mechNames[m]+" polling", r.Polling[m], PaperTable5.Polling[m], 0.06)
		within(t, mechNames[m]+" suspended", r.Suspended[m], PaperTable5.Suspended[m], 0.06)
	}
	// The paper's claims in relation form.
	if d := r.Polling[MechUserLevel] - r.Polling[MechUnsafeASH]; d < 25 || d > 45 {
		t.Errorf("ASH saves %.0f us when polling, paper ~35", d)
	}
	if d := r.Polling[MechSandboxedASH] - r.Polling[MechUnsafeASH]; d < 2 || d > 10 {
		t.Errorf("sandboxing costs %.0f us, paper ~5", d)
	}
	if d := r.Suspended[MechUserLevel] - r.Suspended[MechSandboxedASH]; d < 60 {
		t.Errorf("suspended ASH saves only %.0f us, paper ~96", d)
	}
	// ASHs and upcalls are scheduling-independent; user level is not.
	if math.Abs(r.Suspended[MechUnsafeASH]-r.Polling[MechUnsafeASH]) > 5 {
		t.Error("ASH latency depends on scheduling state")
	}
	if math.Abs(r.Suspended[MechUpcall]-r.Polling[MechUpcall]) > 6 {
		t.Error("upcall latency depends on scheduling state")
	}
}

func TestTable6Shape(t *testing.T) {
	p := Table6Params{LatIters: 8, TCPBytes: 2 << 20}
	r := RunTable6(nil, p)
	const (
		sandboxed = 0
		unsafe    = 1
		upcall    = 2
		userInt   = 3
		userPoll  = 4
	)
	// User-level rows reproduce the paper closely.
	within(t, "user polling latency", r.Latency[userPoll], PaperTable6.Latency[userPoll], 0.05)
	within(t, "user polling tput", r.Tput[userPoll], PaperTable6.Tput[userPoll], 0.10)

	// The headline orderings.
	if !(r.Latency[unsafe] < r.Latency[sandboxed]) {
		t.Error("sandboxing did not cost latency")
	}
	if !(r.Latency[sandboxed] < r.Latency[userInt]) {
		t.Error("ASH not faster than interrupt-driven user level")
	}
	saving := r.Latency[userInt] - r.Latency[sandboxed]
	if saving < 50 {
		t.Errorf("suspended-case ASH saving = %.0f us, paper ~65", saving)
	}
	for i := 0; i < 3; i++ {
		if !(r.Tput[i] > r.Tput[userInt]) {
			t.Errorf("handler mode %d not faster than interrupt-driven user level", i)
		}
	}
	if !(r.TputSmall[sandboxed] > r.TputSmall[userPoll]) {
		t.Error("small-MSS: handlers lost their advantage")
	}
}

func TestFig4Shape(t *testing.T) {
	f := mergeFig4(6, cellResults(nil, fig4Cells(6, 4)))
	first, last := f.Points[0], f.Points[len(f.Points)-1]
	// ASH: flat.
	if math.Abs(last.ASH-first.ASH) > 10 {
		t.Errorf("ASH line not flat: %.0f -> %.0f", first.ASH, last.ASH)
	}
	// Oblivious round-robin: grows roughly linearly (one quantum per
	// competitor).
	if last.Oblivious < 5*first.Oblivious {
		t.Errorf("oblivious line did not grow: %.0f -> %.0f", first.Oblivious, last.Oblivious)
	}
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].Oblivious+1 < f.Points[i-1].Oblivious {
			t.Error("oblivious line not monotone")
		}
	}
	// Ultrix-like: between the two; grows far slower than oblivious.
	if !(first.ASH < first.Ultrix) {
		t.Error("Ultrix baseline below ASH")
	}
	if !(last.Ultrix < last.Oblivious/10) {
		t.Error("Ultrix-like scheduler did not reduce the scheduling effect")
	}
	if !(last.Ultrix > first.Ultrix) {
		t.Error("Ultrix-like scheduler shows no residual effect")
	}
}

func TestSandboxMatchesPaper(t *testing.T) {
	r := RunSandbox(nil)
	if r.SpecificInsns < 7 || r.SpecificInsns > 13 {
		t.Errorf("hand-crafted specific = %d insns, paper ~10", r.SpecificInsns)
	}
	if r.AddedBySandbox < 24 || r.AddedBySandbox > 32 {
		t.Errorf("sandboxing added %d insns, paper 28", r.AddedBySandbox)
	}
	if r.SpecificSandboxInsns >= r.GenericInsns {
		t.Errorf("sandboxed specific (%d) not below generic (%d) — the Section V-D claim",
			r.SpecificSandboxInsns, r.GenericInsns)
	}
	if r.Ratio40 <= r.Ratio4096 {
		t.Error("sandbox overhead ratio did not shrink with transfer size")
	}
	if r.Ratio4096 > 1.05 {
		t.Errorf("4096-byte ratio = %.3f, paper 1.01-1.02", r.Ratio4096)
	}
	// The static-analysis optimizer must reduce the dynamic cost of the
	// sandboxed handlers whose access patterns it targets, and never
	// increase any handler's cost.
	if r.GenericOptInsns >= r.GenericSandboxInsns {
		t.Errorf("optimized generic = %d insns, naive %d — clustered checks not elided",
			r.GenericOptInsns, r.GenericSandboxInsns)
	}
	if r.RecordOptInsns >= r.RecordSandboxInsns {
		t.Errorf("optimized record loop = %d insns, naive %d — invariant checks not hoisted",
			r.RecordOptInsns, r.RecordSandboxInsns)
	}
	if r.SpecificOptInsns > r.SpecificSandboxInsns {
		t.Errorf("optimized specific = %d insns, naive %d — optimizer made it worse",
			r.SpecificOptInsns, r.SpecificSandboxInsns)
	}
	if r.RecordOptInsns <= r.RecordInsns {
		t.Error("optimized record loop not above the unsafe baseline")
	}
}

func TestDPFOrderOfMagnitude(t *testing.T) {
	r := cellResults(nil, dpfCells())[0].(DPFResult)
	n := len(r.Filters) - 1
	if r.Linear[n]/r.Trie[n] < 10 {
		t.Errorf("DPF advantage at %d filters = %.1fx, paper: order of magnitude",
			r.Filters[n], r.Linear[n]/r.Trie[n])
	}
	if r.Trie[n] > 2*r.Trie[0] {
		t.Error("trie demux cost grew with filter count")
	}
}

func TestRenderersProduceTables(t *testing.T) {
	// Smoke-test every renderer (cheap parameter sets).
	outs := []string{
		RunTable1(nil, 4).Table().Render(),
		cellResults(nil, table3Cells())[0].(Table3).Table().Render(),
		mergeTable4(cellResults(nil, table4Cells())).Table().Render(),
		RunSandbox(nil).Table().Render(),
		cellResults(nil, dpfCells())[0].(DPFResult).Table().Render(),
		mergeFig3(cellResults(nil, fig3Cells(8))).Render(),
	}
	for i, s := range outs {
		if len(s) < 80 || !strings.Contains(s, "\n") {
			t.Errorf("renderer %d produced %q", i, s)
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	r := mergeAblation(cellResults(nil, ablationCells()))
	// unsafe < x86 <= timer < software-budget in instruction count.
	byLabel := map[string]int{}
	for i, l := range r.Labels {
		byLabel[l] = i
	}
	unsafe := r.Insns[byLabel["unsafe (no protection)"]]
	timer := r.Insns[byLabel["MIPS SFI + watchdog timer"]]
	soft := r.Insns[byLabel["MIPS SFI + software budget"]]
	x86 := r.Insns[byLabel["x86 segmentation"]]
	if !(unsafe < timer) {
		t.Errorf("SFI added nothing: unsafe=%d timer=%d", unsafe, timer)
	}
	if !(timer <= soft) {
		t.Errorf("software budget not >= timer: %d vs %d", soft, timer)
	}
	if x86 != unsafe {
		t.Errorf("x86 segmentation added %d instructions, want 0 (hardware isolates)", x86-unsafe)
	}
	// The optimized variants win on the loop handler: hoisting under the
	// timer policy, hoisting plus budget coarsening under software budget.
	loopTimer := r.LoopInsns[byLabel["MIPS SFI + watchdog timer"]]
	loopTimerOpt := r.LoopInsns[byLabel["MIPS SFI + watchdog timer (optimized)"]]
	loopSoft := r.LoopInsns[byLabel["MIPS SFI + software budget"]]
	loopSoftOpt := r.LoopInsns[byLabel["MIPS SFI + software budget (optimized)"]]
	if !(loopTimerOpt < loopTimer) {
		t.Errorf("optimizer saved nothing on the loop: %d vs %d", loopTimerOpt, loopTimer)
	}
	if !(loopSoftOpt < loopSoft) {
		t.Errorf("optimizer saved nothing under software budget: %d vs %d", loopSoftOpt, loopSoft)
	}
	// Coarsening leaves one drain instead of one check per iteration, so
	// the optimized software-budget run is within a couple of instructions
	// of the optimized timer run.
	if loopSoftOpt-loopTimerOpt > 2 {
		t.Errorf("budget checks not coarsened: soft-opt %d vs timer-opt %d", loopSoftOpt, loopTimerOpt)
	}
}

// paperBands is the band a [paper] cell of Tables I-VI is held to, keyed by
// experiment, "experiment/row" or "experiment/row/column", the most
// specific key winning: the tolerance the test of that table above uses for
// the cell, or 10% where it uses none.
var paperBands = map[string]float64{
	"table1": 0.05,
	"table2/Ethernet; with checksum/UDP tput": 0.25,
	"table2/Ethernet; with checksum/TCP tput": 0.25,
	"table3/single copy/MB/s":                 0.05,
	"table4/separate":                         0.12,
	"table4/separate/uncached":                0.18,
	"table4/C integrated":                     0.12,
	"table4/DILP":                             0.16,
	"table5":                                  0.06,
	"table6/latency (us)/user (polling)":      0.05,
}

// paperMisses lists the [paper] cells outside their band, each with the
// EXPERIMENTS.md section and paragraph that explains it. TestPaperCells
// fails on a miss not listed here and on a listed cell back inside its
// band, so the list only shrinks.
var paperMisses = map[string]string{
	"table2/AN2; in place, no checksum/UDP tput":   "Table II, Deviations: AN2 UDP throughputs run high",
	"table2/AN2; in place, with checksum/UDP tput": "Table II, Deviations: AN2 UDP throughputs run high",
	"table2/AN2; no checksum/UDP tput":             "Table II, Deviations: AN2 UDP throughputs run high",
	"table2/AN2; with checksum/UDP tput":           "Table II, Deviations: AN2 UDP throughputs run high",
	"table2/AN2; in place, no checksum/TCP tput":   "Table II, Deviations: no-checksum AN2 TCP throughputs run high",
	"table2/AN2; no checksum/TCP tput":             "Table II, Deviations: no-checksum AN2 TCP throughputs run high",
	"table2/Ethernet; with checksum/TCP lat":       "Table II, Deviations: Ethernet TCP latency",
	"table3/double copy/MB/s":                      "Table III: the cached double copy runs low",
	"table6/latency (us)/sandboxed ASH":            "Table VI, Deviations (1): sandboxing costs ~13 us/RT",
	"table6/throughput, small MSS/sandboxed ASH":   "Table VI, Deviations (1): sandboxing costs ~13 us/RT",
	"table6/latency (us)/user (interrupt)":         "Table VI: user (interrupt) latency reschedules at both ends",
	"table6/throughput (MB/s)/sandboxed ASH":       "Table VI, Deviations (2): handler-mode throughput",
	"table6/throughput (MB/s)/unsafe ASH":          "Table VI, Deviations (2): handler-mode throughput",
	"table6/throughput (MB/s)/upcall":              "Table VI, Deviations (2): handler-mode throughput",
}

// paperTables folds each experiment's cell results into its table, as the
// registry's Render does before rendering.
var paperTables = map[string]func(vs []any) *Table{
	"table1": func(vs []any) *Table { return mergeTable1(vs).Table() },
	"table2": func(vs []any) *Table { return mergeTable2(vs).Table() },
	"table3": func(vs []any) *Table { return vs[0].(Table3).Table() },
	"table4": func(vs []any) *Table { return mergeTable4(vs).Table() },
	"table5": func(vs []any) *Table { return mergeTable5(vs).Table() },
	"table6": func(vs []any) *Table { return mergeTable6(vs).Table() },
}

// TestPaperCells holds every [paper] cell of Tables I-VI, at the registry's
// full size (the values of ashbench_output.txt), to its band.
func TestPaperCells(t *testing.T) {
	selected, _ := FindExperiments([]string{"table1", "table2", "table3", "table4", "table5", "table6"})
	var cells []Cell
	counts := make([]int, len(selected))
	for i, e := range selected {
		cs := e.Cells(nil)
		counts[i] = len(cs)
		cells = append(cells, cs...)
	}
	results := cellResults(nil, cells)
	seen := map[string]bool{}
	for i, e := range selected {
		tab := paperTables[e.Name](results[:counts[i]])
		results = results[counts[i]:]
		for _, row := range tab.Rows {
			for j, paper := range row.Paper {
				key := e.Name + "/" + row.Label + "/" + tab.Columns[j]
				band := 0.10
				for _, k := range []string{e.Name, e.Name + "/" + row.Label, key} {
					if b, ok := paperBands[k]; ok {
						band = b
					}
				}
				got := row.Measured[j]
				dev := math.Abs(got-paper) / paper
				_, listed := paperMisses[key]
				seen[key] = true
				switch {
				case dev > band && !listed:
					t.Errorf("%s = %.2f, paper %.2f: %.1f%% off, outside its %.0f%% band and not a listed miss",
						key, got, paper, 100*dev, 100*band)
				case dev <= band && listed:
					t.Errorf("%s = %.2f, paper %.2f: back inside its %.0f%% band; take it off paperMisses",
						key, got, paper, 100*band)
				}
			}
		}
	}
	for key := range paperMisses {
		if !seen[key] {
			t.Errorf("paperMisses lists %q, which is no [paper] cell of Tables I-VI", key)
		}
	}
}
