package bench

import (
	"fmt"
	"runtime"
	"sync"

	"ashs/internal/dpf"
	"ashs/internal/obs"
	"ashs/internal/sim"
)

// Config carries the cross-cutting experiment parameters: workload sizing,
// observability, and parallelism. Every Run* entry point and Cell.Run takes
// one, and build hands it every pair it makes. A nil *Config is valid
// everywhere and means: full workloads, no observability, default
// parallelism. (Fault planes belong to a cell's world: worldSpec.fault.)
//
// Configs are cheap values; runCells gives every concurrently executing
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

	// engines sums the schedules of the worlds built under this config
	// and closed, and the work of their DPF engines and of those the
	// drivers built: per-cell like notes, surfaced as Output.Engines.
	engines EngineCounts
}

// EngineCounts is a schedule summed over closed worlds. Fired, Cancelled
// and Handoffs are functions of the simulations alone; Elided and InPlace
// (wake-ups the sleeping process took itself, with no event or with no
// switch, counted in Fired and Handoffs all the same), Direct (switches a
// blocked process made rather than the engine), Cascades and Spills (the
// engines whose schedule outgrew the small set and moved onto the timing
// wheel; ashbench does not print it) are the event queue's own work on them.
type EngineCounts struct {
	Closed, Fired, Cancelled, Handoffs, Elided, InPlace, Direct, Cascades, Spills uint64

	// DPF is the host work of the DPF engines the worlds and drivers ran.
	DPF dpf.Work
}

// Add returns the sum of c and d.
func (c EngineCounts) Add(d EngineCounts) EngineCounts {
	return EngineCounts{c.Closed + d.Closed, c.Fired + d.Fired, c.Cancelled + d.Cancelled,
		c.Handoffs + d.Handoffs, c.Elided + d.Elided, c.InPlace + d.InPlace, c.Direct + d.Direct,
		c.Cascades + d.Cascades, c.Spills + d.Spills, c.DPF.Add(d.DPF)}
}

// closedEngine is the counts of one closed world's engine.
func closedEngine(st sim.Stats) EngineCounts {
	return EngineCounts{Closed: 1, Fired: st.Fired, Cancelled: st.Cancelled, Handoffs: st.Handoffs,
		Elided: st.Elided, InPlace: st.InPlace, Direct: st.Direct, Cascades: st.Cascades, Spills: st.Spills}
}

// count adds c to the cell's counts. Nil-safe: a world built with a nil
// config counts nowhere.
func (cfg *Config) count(c EngineCounts) {
	if cfg != nil {
		cfg.engines = cfg.engines.Add(c)
	}
}

// note records a line about the simulator's own state — storage, pools —
// for ashbench's stderr. It is not part of the cell's result, so stdout and
// the goldens never see it. Nil-safe.
func (cfg *Config) note(format string, args ...any) {
	if cfg != nil {
		cfg.notes += fmt.Sprintf(format, args...) + "\n"
	}
}

// observe applies the config's Obs hook to a new testbed. Called from
// build, for pairs only: the hook's users read both hosts of a pair;
// nil-safe.
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
// hooks and sizing (a nil config's), fresh planes, notes and counts.
func (cfg *Config) cellConfig() *Config {
	cc := &Config{}
	if cfg != nil {
		*cc = *cfg
		cc.planes, cc.notes, cc.engines = nil, "", EngineCounts{}
	}
	return cc
}

// parallelism reports the worker count this config selects: Parallel, or
// one worker per available CPU when that is below 1 or the config is nil.
func (cfg *Config) parallelism() int {
	if cfg == nil || cfg.Parallel < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.Parallel
}

// quick reports the workload-size selection, nil-safe.
func (cfg *Config) quick() bool { return cfg != nil && cfg.Quick }

// sized is a workload size cfg selects: quick under a Quick config, full
// otherwise.
func sized[T any](cfg *Config, quick, full T) T {
	if cfg.quick() {
		return quick
	}
	return full
}

// Cell is one independent unit of experiment work: a label, the world it
// runs on (nil for the cells that need none) and the driver that measures
// it there. A cell is data — no field holds a func — so two enumerations of
// an experiment give equal cells (TestCellsAreValues).
type Cell struct {
	Label string
	spec  *worldSpec
	drive driver
}

// driver is a workload as a value: a comparable struct of its parameters,
// whose drive method runs it on the cell's world (nil for a cell without
// one) and returns the measurement.
type driver interface {
	drive(cfg *Config, w *world) any
}

// onWorld is the cell label whose driver d runs on the world s describes.
func onWorld(label string, s worldSpec, d driver) Cell { return Cell{label, &s, d} }

// Run builds the cell's world, drives it and closes it. A cell without a
// world is driven with a nil one.
func (c Cell) Run(cfg *Config) any {
	if c.spec == nil {
		return c.drive.drive(cfg, nil)
	}
	return inWorld(cfg, *c.spec, func(w *world) any { return c.drive.drive(cfg, w) })
}

// runCells executes cells on at most cfg's parallelism workers, each cell
// under its own config copy, and returns their results and those copies,
// with the notes and engine counts each cell left there, in cell-index
// order. The planes each cell attached are folded back into cfg in the
// same deterministic order, so a traced parallel run exports exactly the
// planes (and ordering) of a serial one.
//
// A panicking cell is re-raised with its label. With one worker the cells
// run inline in index order, the serial reference, and the first panic is
// re-raised where it happened, so its stack still prints. The pool attempts
// every cell and then re-raises the lowest-indexed panic: the same cell and
// message as the serial run, whatever the completion order.
func runCells(cfg *Config, cells []Cell) (results []any, ccs []*Config) {
	results = make([]any, len(cells))
	ccs = make([]*Config, len(cells))
	for i := range cells {
		ccs[i] = cfg.cellConfig()
	}
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				panic(fmt.Sprintf("bench: cell %q panicked: %v", cells[i].Label, p))
			}
		}()
		results[i] = cells[i].Run(ccs[i])
	}
	if workers := min(cfg.parallelism(), len(cells)); workers <= 1 {
		for i := range cells {
			run(i)
		}
	} else {
		panics := make([]any, len(cells))
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for i := range next {
					func() {
						defer func() { panics[i] = recover() }()
						run(i)
					}()
				}
			}()
		}
		for i := range cells {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	if cfg != nil {
		for _, cc := range ccs {
			cfg.planes = append(cfg.planes, cc.planes...)
		}
	}
	return results, ccs
}

// cellResults is runCells for the Run* entry points, which keep no notes
// or counts.
func cellResults(cfg *Config, cells []Cell) []any {
	results, _ := runCells(cfg, cells)
	return results
}

// as converts cell results that all hold a T to a []T.
func as[T any](vs []any) []T {
	out := make([]T, len(vs))
	for i, v := range vs {
		out[i] = v.(T)
	}
	return out
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
