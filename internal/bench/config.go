package bench

import (
	"fmt"

	"ashs/internal/bench/runner"
	"ashs/internal/obs"
)

// Config carries the cross-cutting experiment parameters that used to be
// threaded by hand (or, worse, through the package-global Observe hook):
// workload sizing, observability, and parallelism. It is passed explicitly
// into every Run* entry point and every testbed builder. A nil *Config is
// valid everywhere and means: full workloads, no observability, default
// parallelism. (Fault planes are attached by the experiments that inject
// faults, to the worlds they build — Testbed.AttachFault.)
//
// Configs are cheap values; the runner gives every concurrently executing
// cell its own copy, so nothing here needs locking.
type Config struct {
	// Quick selects reduced workload sizes (faster, slightly noisier
	// throughput numbers). Experiment registrations consult it when
	// enumerating their cells.
	Quick bool

	// Obs, when non-nil, is called with every freshly built testbed
	// before any workload runs. Returning a non-nil plane attaches it to
	// the testbed and records it for trace export (Output.Planes), in
	// deterministic cell-then-creation order. Returning nil leaves the
	// testbed unobserved (the hook may still inspect it).
	Obs func(tb *Testbed) *obs.Plane

	// Parallel bounds the worker pool executing experiment cells.
	// Values below 1 select one worker per available CPU. Results are
	// merged in cell-index order, so any value yields byte-identical
	// output; only wall time changes.
	Parallel int

	// planes collects the observability planes this config's testbeds
	// attached, in creation order. Each cell runs with its own Config
	// copy, so the slice needs no lock; the runner concatenates the
	// per-cell slices in cell-index order afterwards.
	planes []*obs.Plane

	// notes is what this cell said about the simulator itself (note):
	// per-cell like planes, surfaced as Output.Notes.
	notes string
}

// note records a line about the simulator's own state — storage, pools —
// for ashbench's stderr. It is not part of the cell's result, so stdout and
// the goldens never see it. Nil-safe.
func (cfg *Config) note(format string, args ...any) {
	if cfg != nil {
		cfg.notes += fmt.Sprintf(format, args...) + "\n"
	}
}

// observe applies the config's Obs hook to a new testbed. Called from the
// testbed builders; nil-safe.
func (cfg *Config) observe(tb *Testbed) {
	if cfg == nil || cfg.Obs == nil {
		return
	}
	if pl := cfg.Obs(tb); pl != nil {
		tb.AttachObs(pl)
		cfg.planes = append(cfg.planes, pl)
	}
}

// cellConfig derives the private Config copy one cell runs under: same
// hooks and sizing, fresh plane collection.
func (cfg *Config) cellConfig() *Config {
	if cfg == nil {
		return nil
	}
	cc := *cfg
	cc.planes, cc.notes = nil, ""
	return &cc
}

// parallelism reports the worker count this config selects.
func (cfg *Config) parallelism() int {
	if cfg == nil {
		return runner.DefaultParallelism()
	}
	return runner.Normalize(cfg.Parallel)
}

// quick reports the workload-size selection, nil-safe.
func (cfg *Config) quick() bool { return cfg != nil && cfg.Quick }

// Cell is one independent unit of experiment work under an explicit
// config: one testbed build, one workload, one result.
type Cell struct {
	Label string
	Run   func(cfg *Config) any
}

// cellOut is what a wrapped cell returns to the pool: the experiment
// result plus the observability planes the cell's testbeds attached.
type cellOut struct {
	v      any
	planes []*obs.Plane
	notes  string
}

// wrap binds a bench Cell to a parent config as a runner.Cell: the cell
// executes under its own config copy and carries its planes out with the
// result.
func wrap(parent *Config, c Cell) runner.Cell {
	return runner.Cell{Label: c.Label, Run: func() any {
		cc := parent.cellConfig()
		v := c.Run(cc)
		if cc == nil {
			return cellOut{v: v}
		}
		return cellOut{v: v, planes: cc.planes, notes: cc.notes}
	}}
}

// runCells executes cells under cfg's parallelism and returns their
// results in cell-index order. The planes each cell attached are folded
// back into cfg in the same deterministic order, so a traced parallel run
// exports exactly the planes (and ordering) of a serial one.
func runCells(cfg *Config, cells []Cell) []any {
	wrapped := make([]runner.Cell, len(cells))
	for i, c := range cells {
		wrapped[i] = wrap(cfg, c)
	}
	outs := runner.Run(cfg.parallelism(), wrapped)
	results := make([]any, len(outs))
	for i, o := range outs {
		co := o.(cellOut)
		results[i] = co.v
		if cfg != nil {
			cfg.planes = append(cfg.planes, co.planes...)
		}
	}
	return results
}

// Planes returns the observability planes cfg's testbeds attached so far,
// in deterministic cell-then-creation order. The ashbench -trace flag
// exports them as one Chrome trace document.
func (cfg *Config) Planes() []*obs.Plane {
	if cfg == nil {
		return nil
	}
	return cfg.planes
}
