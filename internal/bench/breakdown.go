package bench

import (
	"fmt"
	"slices"
	"strings"

	"ashs/internal/obs"
	"ashs/internal/sim"
)

// phaseOrder is the fixed rendering order of span categories. Everything
// in the window not covered by a span lands in the trailing "wait/other"
// residual, so the per-phase cycles always sum exactly to the window.
var phaseOrder = []string{"wire", "device", "kernel", "sched", "ash", "upcall", "proto"}

// BreakdownPhase is one phase's share of a measurement window.
type BreakdownPhase struct {
	Name   string
	Cycles sim.Time
}

// BreakdownRow decomposes one latency experiment's measurement window.
type BreakdownRow struct {
	Label      string
	PaperUs    float64 // paper's end-to-end us per round trip (0: none)
	MeasuredUs float64 // this run's us per round trip
	Iters      int
	Total      sim.Time         // window length in cycles
	Phases     []BreakdownPhase // phaseOrder then "wait/other"; sums to Total
	Plane      *obs.Plane       // the run's full trace, for -trace export
}

// Breakdown is the cycle-accurate latency decomposition experiment: the
// paper's Table I/V/VI latency workloads re-run with tracing on, each
// measurement window attributed to per-layer phases. Tracing charges no
// simulated cycles, so every row's end-to-end time equals the one the
// plain table experiment reports.
type Breakdown struct {
	Iters int
	Rows  []BreakdownRow
}

// breakdownRows names the traced latency workloads in render order: each
// row's label, the table cell whose measurement it traces, and the paper's
// value.
var breakdownRows = []struct {
	label, cell string
	paper       float64
}{
	{"Table I: in-kernel AN2", "table1/in-kernel", PaperTable1.InKernelAN2},
	{"Table I: user-level AN2", "table1/user-level", PaperTable1.UserAN2},
	{"Table I: Ethernet", "table1/ethernet", PaperTable1.Ethernet},
	{"Table V: sandboxed ASH (polling)", "table5/sandboxed ASH/polling", PaperTable5.Polling[MechSandboxedASH]},
	{"Table V: user-level (polling)", "table5/user-level/polling", PaperTable5.Polling[MechUserLevel]},
	{"Table VI: TCP latency, sandboxed ASH", "table6/sandboxed ASH/latency", PaperTable6.Latency[0]},
	{"Table VI: TCP latency, user (polling)", "table6/user (polling)/latency", PaperTable6.Latency[4]},
}

// breakdownCells enumerates one cell per traced workload: the table cell
// itself, run with a plane attached (unless a -trace hook already attached
// one, so the run produces a single trace), and the window its driver
// measured attributed to phases.
func breakdownCells(iters int) []Cell {
	tables := map[string]Cell{}
	for _, c := range slices.Concat(table1Cells(iters), table5Cells(iters), table6Cells(Table6Params{LatIters: iters})) {
		tables[c.Label] = c
	}
	cells := make([]Cell, len(breakdownRows))
	for i, r := range breakdownRows {
		c, ok := tables[r.cell]
		if !ok {
			panic(fmt.Sprintf("bench: breakdown row %q traces table cell %q, which no table enumerates", r.label, r.cell))
		}
		cells[i] = Cell{"breakdown/" + r.label, c.spec, traced{r.label, r.paper, iters, c.drive}}
	}
	return cells
}

// traced runs a table cell's own driver, which measured iters round trips,
// and attributes the window it recorded to phases: a breakdown row,
// labelled with the paper's value beside it.
type traced struct {
	label string
	paper float64
	iters int
	table driver
}

func (d traced) drive(cfg *Config, w *world) any {
	if w.tb.Obs == nil {
		w.tb.AttachObs(obs.New(float64(w.prof.MHz)))
	}
	meas := d.table.drive(cfg, w).(float64)
	start, end := w.window[0], w.window[1]
	byCat := w.tb.Obs.PhaseCycles(start, end)
	var phases []BreakdownPhase
	var sum sim.Time
	for _, name := range phaseOrder {
		cyc := byCat[name]
		sum += cyc
		phases = append(phases, BreakdownPhase{name, cyc})
	}
	// Residual by construction: the row always sums to the window.
	phases = append(phases, BreakdownPhase{"wait/other", end - start - sum})
	return BreakdownRow{
		Label: d.label, PaperUs: d.paper, MeasuredUs: meas,
		Iters: d.iters, Total: end - start, Phases: phases, Plane: w.tb.Obs,
	}
}

func mergeBreakdown(iters int, vs []any) *Breakdown {
	return &Breakdown{Iters: iters, Rows: as[BreakdownRow](vs)}
}

// Render produces the per-phase cost tables.
func (b *Breakdown) Render() string {
	var out strings.Builder
	fmt.Fprintf(&out, "Latency breakdown: per-phase cycles over the measurement window\n")
	fmt.Fprintf(&out, "  (%d round trips per row; us/RT = phase cycles / iters / 40 MHz;\n", b.Iters)
	fmt.Fprintf(&out, "   wait/other is the untraced residual, so phases sum exactly to the total)\n")
	for _, r := range b.Rows {
		fmt.Fprintf(&out, "\n%s — measured %.2f us/RT", r.Label, r.MeasuredUs)
		if r.PaperUs > 0 {
			fmt.Fprintf(&out, " (paper %.0f)", r.PaperUs)
		}
		out.WriteByte('\n')
		cpu := float64(r.Plane.CyclesPerUs)
		rows := [][]string{{"phase", "cycles", "us/RT", "share"}}
		for _, ph := range r.Phases {
			rows = append(rows, []string{
				ph.Name,
				fmt.Sprintf("%d", ph.Cycles),
				fmt.Sprintf("%.3f", float64(ph.Cycles)/cpu/float64(r.Iters)),
				fmt.Sprintf("%.1f%%", 100*float64(ph.Cycles)/float64(r.Total)),
			})
		}
		rows = append(rows, []string{
			"total",
			fmt.Sprintf("%d", r.Total),
			fmt.Sprintf("%.3f", float64(r.Total)/cpu/float64(r.Iters)),
			"100.0%",
		})
		widths := make([]int, len(rows[0]))
		for _, row := range rows {
			for i, c := range row {
				if len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		for ri, row := range rows {
			fmt.Fprintf(&out, "  %-*s", widths[0], row[0])
			for i := 1; i < len(row); i++ {
				fmt.Fprintf(&out, "  %*s", widths[i], row[i])
			}
			out.WriteByte('\n')
			if ri == 0 || ri == len(rows)-2 {
				w := widths[0]
				for i := 1; i < len(widths); i++ {
					w += 2 + widths[i]
				}
				out.WriteString("  " + strings.Repeat("-", w) + "\n")
			}
		}
	}
	return out.String()
}
