package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ashs/internal/obs"
	"ashs/internal/sim"
)

// The breakdown's per-phase cycles must sum exactly to each measurement
// window, and the traced end-to-end number must equal the untraced one
// (tracing charges no simulated cycles).
func TestBreakdownPhasesSumToWindow(t *testing.T) {
	const iters = 4
	b := mergeBreakdown(iters, cellResults(nil, breakdownCells(iters)))
	if len(b.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range b.Rows {
		var sum sim.Time
		for _, ph := range r.Phases {
			sum += ph.Cycles
		}
		if sum != r.Total {
			t.Errorf("%s: phase sum %d != window %d", r.Label, sum, r.Total)
		}
		if r.Total <= 0 {
			t.Errorf("%s: empty window", r.Label)
		}
		if r.Plane.Events() == 0 {
			t.Errorf("%s: no trace events recorded", r.Label)
		}
	}
	// Traced == untraced on every row: each measures what the table cell
	// it traces measures, run without a plane.
	untraced := map[string]float64{}
	tables := slices.Concat(table1Cells(iters), table5Cells(iters), table6Cells(Table6Params{LatIters: iters}))
	for i, v := range cellResults(nil, tables) {
		untraced[tables[i].Label] = v.(float64)
	}
	if len(b.Rows) != len(breakdownRows) {
		t.Fatalf("%d rows, want %d", len(b.Rows), len(breakdownRows))
	}
	for i, r := range breakdownRows {
		want, ok := untraced[r.cell]
		if !ok {
			t.Fatalf("%s: no table cell %q", r.label, r.cell)
		}
		if got := b.Rows[i].MeasuredUs; b.Rows[i].Label != r.label || got != want {
			t.Errorf("row %d %q: traced %v us/RT, untraced %s %v", i, b.Rows[i].Label, got, r.cell, want)
		}
	}
}

// Two breakdown runs of the same workload must export byte-identical
// trace JSON — the determinism contract the CI gate enforces.
func TestBreakdownTraceByteIdentical(t *testing.T) {
	const iters = 3
	trace := func() []byte {
		var ps []*obs.Plane
		for _, r := range mergeBreakdown(iters, cellResults(nil, breakdownCells(iters))).Rows {
			ps = append(ps, r.Plane)
		}
		return obs.WriteTrace(ps...)
	}
	a, b := trace(), trace()
	if !bytes.Equal(a, b) {
		t.Fatal("breakdown traces differ between identical runs")
	}
	if !strings.HasPrefix(string(a), `{"traceEvents":[`) {
		t.Fatal("trace is not a trace_event document")
	}
}

// Render must include every phase row and the exact-total line.
func TestBreakdownRender(t *testing.T) {
	b := mergeBreakdown(2, cellResults(nil, breakdownCells(2)))
	out := b.Render()
	for _, want := range append(phaseOrder, "wait/other", "total", "paper") {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
