package bench

import (
	"fmt"
	"strings"

	"ashs/internal/obs"
	"ashs/internal/sim"
)

// obsRun carries the observability plane and measurement window of one
// traced workload run. A nil *obsRun is valid everywhere and turns
// observation off — the normal path every table experiment takes.
type obsRun struct {
	plane      *obs.Plane
	start, end sim.Time
}

// attach wires a plane into tb. If a -trace hook already attached one
// (tb.Obs non-nil), it is reused so the run produces a single trace.
func (o *obsRun) attach(tb *Testbed) {
	if o == nil {
		return
	}
	if tb.Obs == nil {
		tb.AttachObs(obs.New(float64(tb.Prof.MHz)))
	}
	o.plane = tb.Obs
}

// window records the [start, end) cycle window the workload measured.
func (o *obsRun) window(start, end sim.Time) {
	if o == nil {
		return
	}
	o.start, o.end = start, end
}

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

// breakdownSpecs enumerates the traced latency workloads in render order.
func breakdownSpecs(iters int) []struct {
	label string
	paper float64
	run   func(cfg *Config, o *obsRun) float64
} {
	return []struct {
		label string
		paper float64
		run   func(cfg *Config, o *obsRun) float64
	}{
		{"Table I: in-kernel AN2", PaperTable1.InKernelAN2,
			func(cfg *Config, o *obsRun) float64 { return inKernelAN2RT(cfg, iters, o) }},
		{"Table I: user-level AN2", PaperTable1.UserAN2,
			func(cfg *Config, o *obsRun) float64 { return rawPingPong(cfg, false, iters, o) }},
		{"Table I: Ethernet", PaperTable1.Ethernet,
			func(cfg *Config, o *obsRun) float64 { return rawPingPong(cfg, true, iters, o) }},
		{"Table V: sandboxed ASH (polling)", PaperTable5.Polling[MechSandboxedASH],
			func(cfg *Config, o *obsRun) float64 {
				return remoteIncrementRT(cfg, MechSandboxedASH, false, iters, o)
			}},
		{"Table V: user-level (polling)", PaperTable5.Polling[MechUserLevel],
			func(cfg *Config, o *obsRun) float64 {
				return remoteIncrementRT(cfg, MechUserLevel, false, iters, o)
			}},
		{"Table VI: TCP latency, sandboxed ASH", PaperTable6.Latency[0],
			func(cfg *Config, o *obsRun) float64 { return table6Latency(cfg, table6Modes[0], iters, o) }},
		{"Table VI: TCP latency, user (polling)", PaperTable6.Latency[4],
			func(cfg *Config, o *obsRun) float64 { return table6Latency(cfg, table6Modes[4], iters, o) }},
	}
}

// breakdownCells enumerates one cell per traced workload.
func breakdownCells(iters int) []Cell {
	specs := breakdownSpecs(iters)
	cells := make([]Cell, len(specs))
	for i, s := range specs {
		s := s
		cells[i] = Cell{"breakdown/" + s.label, func(cfg *Config) any {
			o := &obsRun{}
			meas := s.run(cfg, o)
			total := o.end - o.start
			byCat := o.plane.PhaseCycles(o.start, o.end)
			var phases []BreakdownPhase
			var sum sim.Time
			for _, name := range phaseOrder {
				c := byCat[name]
				sum += c
				phases = append(phases, BreakdownPhase{name, c})
			}
			// Residual by construction: the row always sums to the window.
			phases = append(phases, BreakdownPhase{"wait/other", total - sum})
			return BreakdownRow{
				Label: s.label, PaperUs: s.paper, MeasuredUs: meas,
				Iters: iters, Total: total, Phases: phases, Plane: o.plane,
			}
		}}
	}
	return cells
}

func mergeBreakdown(iters int, vs []any) *Breakdown {
	b := &Breakdown{Iters: iters}
	for _, v := range vs {
		b.Rows = append(b.Rows, v.(BreakdownRow))
	}
	return b
}

// RunBreakdown traces the latency workloads of Tables I, V and VI.
func RunBreakdown(cfg *Config, iters int) *Breakdown {
	return mergeBreakdown(iters, runCells(cfg, breakdownCells(iters)))
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

// Planes returns the rows' planes in order, for trace export.
func (b *Breakdown) Planes() []*obs.Plane {
	var ps []*obs.Plane
	for _, r := range b.Rows {
		ps = append(ps, r.Plane)
	}
	return ps
}
