package bench

import (
	"strings"

	"ashs/internal/bench/runner"
)

// Experiment is one registered entry of the ashbench suite: a name, a
// one-line description, a cell enumeration (which consults cfg.Quick for
// workload sizing), and a deterministic render step over the cell results.
// The registry is the single source of truth for what exists and in what
// order it runs — cmd/ashbench iterates it instead of keeping its own
// ladder.
type Experiment struct {
	Name  string
	Help  string
	Cells func(cfg *Config) []Cell
	// Render folds the cell results (in cell-index order, exactly as
	// Cells enumerated them) into the experiment's printed output.
	Render func(cfg *Config, results []any) string
}

// experiments is the canonical suite, in the paper's presentation order.
var experiments = []*Experiment{
	{
		Name:  "table1",
		Help:  "Table I: raw round-trip latency of the base system",
		Cells: func(cfg *Config) []Cell { return table1Cells(10) },
		Render: func(cfg *Config, vs []any) string {
			return mergeTable1(vs).Table().Render()
		},
	},
	{
		Name: "fig3",
		Help: "Fig. 3: user-level AN2 throughput vs packet size",
		Cells: func(cfg *Config) []Cell {
			return fig3Cells(fig3Pkts(cfg))
		},
		Render: func(cfg *Config, vs []any) string {
			return mergeFig3(vs).Render()
		},
	},
	{
		Name: "table2",
		Help: "Table II: UDP/TCP latency and throughput",
		Cells: func(cfg *Config) []Cell {
			return table2Cells(table2Params(cfg))
		},
		Render: func(cfg *Config, vs []any) string {
			return mergeTable2(vs).Table().Render()
		},
	},
	{
		Name:  "table3",
		Help:  "Table III: copy throughput microbenchmark",
		Cells: func(cfg *Config) []Cell { return table3Cells() },
		Render: func(cfg *Config, vs []any) string {
			return vs[0].(Table3).Table().Render()
		},
	},
	{
		Name:  "table4",
		Help:  "Table IV: integrated vs non-integrated memory operations",
		Cells: func(cfg *Config) []Cell { return table4Cells() },
		Render: func(cfg *Config, vs []any) string {
			return mergeTable4(vs).Table().Render()
		},
	},
	{
		Name:  "table5",
		Help:  "Table V: remote increment round trip by handler placement",
		Cells: func(cfg *Config) []Cell { return table5Cells(10) },
		Render: func(cfg *Config, vs []any) string {
			return mergeTable5(vs).Table().Render()
		},
	},
	{
		Name: "table6",
		Help: "Table VI: end-to-end TCP with the fast path in handlers",
		Cells: func(cfg *Config) []Cell {
			return table6Cells(table6Params(cfg))
		},
		Render: func(cfg *Config, vs []any) string {
			return mergeTable6(vs).Table().Render()
		},
	},
	{
		Name: "fig4",
		Help: "Fig. 4: scheduling decoupling vs active process count",
		Cells: func(cfg *Config) []Cell {
			return fig4Cells(fig4MaxProcs, fig4Iters(cfg))
		},
		Render: func(cfg *Config, vs []any) string {
			return mergeFig4(fig4MaxProcs, vs).Render()
		},
	},
	{
		Name:  "sandbox",
		Help:  "Section V-D: sandboxing overhead on the remote write",
		Cells: func(cfg *Config) []Cell { return sandboxCells() },
		Render: func(cfg *Config, vs []any) string {
			return mergeSandbox(vs).Table().Render()
		},
	},
	{
		Name:  "dpf",
		Help:  "DPF trie vs interpreted demultiplexing",
		Cells: func(cfg *Config) []Cell { return dpfCells() },
		Render: func(cfg *Config, vs []any) string {
			return vs[0].(DPFResult).Table().Render()
		},
	},
	{
		Name:  "ablation",
		Help:  "ablation: safety strategies of Section III-B",
		Cells: func(cfg *Config) []Cell { return ablationCells() },
		Render: func(cfg *Config, vs []any) string {
			return mergeAblation(vs).Table().Render()
		},
	},
	{
		Name:  "lint",
		Help:  "static-analysis lint findings over the handler library",
		Cells: func(cfg *Config) []Cell { return lintCells() },
		Render: func(cfg *Config, vs []any) string {
			return vs[0].(string)
		},
	},
	{
		Name: "chaos",
		Help: "chaos soak: fault schedules vs delivery integrity",
		Cells: func(cfg *Config) []Cell {
			return chaosCells(chaosParams(cfg))
		},
		Render: func(cfg *Config, vs []any) string {
			results := make([]ChaosResult, len(vs))
			for i, v := range vs {
				results[i] = v.(ChaosResult)
			}
			return RenderChaos(results)
		},
	},
	{
		Name:  "breakdown",
		Help:  "cycle-accurate latency breakdown of Tables I/V/VI",
		Cells: func(cfg *Config) []Cell { return breakdownCells(breakdownIters) },
		Render: func(cfg *Config, vs []any) string {
			return mergeBreakdown(breakdownIters, vs).Render()
		},
	},
	{
		Name:  "scale",
		Help:  "many-client fan-in: sub-linear demux vs client count",
		Cells: func(cfg *Config) []Cell { return scaleCells(scaleMsgs(cfg)) },
		Render: func(cfg *Config, vs []any) string {
			return renderScale(vs)
		},
	},
	{
		Name:  "overload",
		Help:  "overload control: adversarial traces vs graceful degradation",
		Cells: overloadCells,
		Render: func(cfg *Config, vs []any) string {
			results := make([]OverloadResult, len(vs))
			for i, v := range vs {
				results[i] = v.(OverloadResult)
			}
			return RenderOverload(results)
		},
	},
	{
		Name:  "megascale",
		Help:  "megascale: 10^6 flyweight clients vs one full server host",
		Cells: megascaleCells,
		Render: func(cfg *Config, vs []any) string {
			return renderMegascale(cfg, vs)
		},
	},
	{
		Name:  "reopt",
		Help:  "DCG loop: profile-guided re-optimization, before/after",
		Cells: func(cfg *Config) []Cell { return reoptCells() },
		Render: func(cfg *Config, vs []any) string {
			return renderReopt(vs)
		},
	},
}

// Workload sizing shared between the registry and the Run* entry points.
const (
	fig4MaxProcs   = 10
	breakdownIters = 10
)

func fig3Pkts(cfg *Config) int {
	if cfg.quick() {
		return 24
	}
	return 64
}

func fig4Iters(cfg *Config) int {
	if cfg.quick() {
		return 4
	}
	return 8
}

func table2Params(cfg *Config) Table2Params {
	p := DefaultTable2Params()
	if cfg.quick() {
		p.TCPBytes = 2 << 20
		p.UDPTrains = 10
	}
	return p
}

func table6Params(cfg *Config) Table6Params {
	p := DefaultTable6Params()
	if cfg.quick() {
		p.TCPBytes = 2 << 20
	}
	return p
}

func chaosParams(cfg *Config) ChaosParams {
	if cfg.quick() {
		return QuickChaosParams()
	}
	return DefaultChaosParams()
}

// Experiments returns the registered suite in canonical run order.
func Experiments() []*Experiment {
	return append([]*Experiment(nil), experiments...)
}

// ExperimentNames lists the registry's names in run order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// FindExperiments resolves a requested name list ("all" selects the whole
// suite) against the registry, preserving canonical order and reporting
// every unknown name — a misspelled experiment must never be silently
// skipped.
func FindExperiments(names []string) (selected []*Experiment, unknown []string) {
	want := map[string]bool{}
	all := false
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if n == "all" {
			all = true
			continue
		}
		known := false
		for _, e := range experiments {
			if e.Name == n {
				known = true
				break
			}
		}
		if !known {
			unknown = append(unknown, n)
			continue
		}
		want[n] = true
	}
	for _, e := range experiments {
		if all || want[e.Name] {
			selected = append(selected, e)
		}
	}
	return selected, unknown
}

// Output is one experiment's rendered result.
type Output struct {
	Name string
	Text string
	// Notes is what the cells said about the simulator itself (see
	// Config.note), in cell order: for stderr, never part of the result.
	Notes string
}

// RunExperiments executes the selected experiments' cells on one shared
// worker pool — cells from different experiments interleave freely, so a
// long tail in one experiment overlaps the next — and renders each
// experiment from its own results, in registry order. Observability
// planes land in cfg (see Config.Planes) in cell-index order, making the
// rendered text and any exported trace byte-identical for every
// parallelism level.
func RunExperiments(cfg *Config, selected []*Experiment) []Output {
	var all []runner.Cell
	counts := make([]int, len(selected))
	perExp := make([][]Cell, len(selected))
	for i, e := range selected {
		cells := e.Cells(cfg)
		perExp[i] = cells
		counts[i] = len(cells)
		for _, c := range cells {
			all = append(all, wrap(cfg, c))
		}
	}
	outs := runner.Run(cfg.parallelism(), all)
	results := make([]any, len(outs))
	notes := make([]string, len(outs))
	for i, o := range outs {
		co := o.(cellOut)
		results[i], notes[i] = co.v, co.notes
		if cfg != nil {
			cfg.planes = append(cfg.planes, co.planes...)
		}
	}
	var rendered []Output
	off := 0
	for i, e := range selected {
		vs := results[off : off+counts[i]]
		off += counts[i]
		rendered = append(rendered, Output{
			Name: e.Name, Text: e.Render(cfg, vs),
			Notes: strings.Join(notes[off-counts[i]:off], ""),
		})
	}
	return rendered
}
