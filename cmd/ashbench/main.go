// Command ashbench regenerates the tables and figures of the paper's
// evaluation (Sections IV and V) on the simulated testbed and prints them
// next to the paper's reported values.
//
// Usage:
//
//	ashbench                     # everything (full workloads)
//	ashbench -experiment table5  # one experiment
//	ashbench -quick              # reduced workloads
//	ashbench -parallel 1         # serial reference execution
//	ashbench -experiment breakdown -trace out.json
//	ashbench -parallel 1 -cpuprofile cpu.prof -memprofile mem.prof
//
// The experiment list, run order, and per-experiment help all come from
// the bench registry (bench.Experiments) — run with -experiment help to
// print it. Every experiment decomposes into independent cells (one
// simulated world each) executed on a worker pool; -parallel bounds the
// pool and defaults to one worker per CPU. Results merge in cell-index
// order, so the printed tables and any -trace file are byte-identical at
// every parallelism level (CI asserts this); only wall time changes.
//
// -trace works with every experiment: it attaches a tracing plane to each
// testbed built and writes all of them as one Chrome trace_event JSON
// file (open in Perfetto or chrome://tracing). Tracing charges no
// simulated cycles, so traced results are identical to untraced ones.
//
// -cpuprofile and -memprofile profile the simulator itself (the Go
// program, not the simulated machines) over the experiments selected, for
// `go tool pprof`. Both files are written after the run and nothing about
// them goes to stdout, so profiled output still compares equal to
// ashbench_output.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ashs/internal/aegis"
	"ashs/internal/bench"
	"ashs/internal/obs"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "which experiments to run (comma-separated; 'help' lists them), or all")
		quick    = flag.Bool("quick", false, "reduced workload sizes (faster, slightly noisier throughput)")
		parallel = flag.Int("parallel", 0, "worker pool size for experiment cells (<1: one per CPU); output is identical at any value")
		trace    = flag.String("trace", "", "write a Chrome trace_event JSON file covering every testbed built")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	flag.Parse()

	names := strings.Split(*exp, ",")
	for _, n := range names {
		if strings.TrimSpace(n) == "help" {
			for _, e := range bench.Experiments() {
				fmt.Printf("  %-10s %s\n", e.Name, e.Help)
			}
			return
		}
	}
	selected, unknown := bench.FindExperiments(names)
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment(s): %s (known: %s, all)\n",
			strings.Join(unknown, ", "), strings.Join(bench.ExperimentNames(), ", "))
		os.Exit(2)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "no experiments selected\n")
		os.Exit(2)
	}

	cfg := &bench.Config{Quick: *quick, Parallel: *parallel}
	if *trace != "" {
		cfg.Obs = func(tb *bench.Testbed) *obs.Plane {
			return obs.New(float64(tb.Prof.MHz))
		}
	}

	fmt.Println("ASHs: Application-Specific Handlers for High-Performance Messaging")
	fmt.Println("reproduction of the SIGCOMM'96 / ToN'97 evaluation on the simulated testbed")
	fmt.Println()

	stopCPU := startCPUProfile(*cpuProf)
	start := time.Now()
	var notes strings.Builder
	for _, out := range bench.RunExperiments(cfg, selected) {
		fmt.Print(out.Text)
		fmt.Println()
		notes.WriteString(out.Notes)
	}
	stopCPU()
	writeMemProfile(*memProf)
	// Wall time goes to stderr: stdout must stay byte-identical across
	// runs and parallelism levels.
	fmt.Fprintf(os.Stderr, "[%d experiment(s) ran in %.1fs wall]\n", len(selected), time.Since(start).Seconds())
	// Beside it, the host-memory pool: every cell closes its world, so
	// leases == returned, and grown stays near the worker count times the
	// few host sizes. A cell that stops closing shows as grown jumping.
	a := aegis.ArenaStats()
	fmt.Fprintf(os.Stderr, "[host memory arenas: %d leases, %d returned, %d grown, %.1f MiB zeroed on return]\n",
		a.Leases, a.Returned, a.Grown, float64(a.ZeroedBytes)/(1<<20))
	// And the schedule itself: the first four are functions of the
	// simulations alone (ci.sh compares the -quick -parallel 1 line with
	// ashbench_counts.txt); elided (how many of those handoffs the sleeping
	// process took itself, no event and no switch) and cascades are what the
	// event queue did with them.
	e := bench.EngineStats()
	fmt.Fprintf(os.Stderr, "[sim engines: %d closed, %d fired, %d cancelled, %d handoffs, %d elided, %d cascades]\n",
		e.Closed, e.Fired, e.Cancelled, e.Handoffs, e.Elided, e.Cascades)
	// And whatever the experiments report about the simulator itself
	// (megascale: the server DPF trie's slab census per cell).
	fmt.Fprint(os.Stderr, notes.String())

	if *trace != "" {
		planes := cfg.Planes()
		if err := os.WriteFile(*trace, obs.WriteTrace(planes...), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		n := 0
		for _, pl := range planes {
			n += pl.Events()
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d events across %d testbeds\n", *trace, n, len(planes))
	}
}

// startCPUProfile starts profiling into path and returns the function that
// stops it and closes the file; with no path both do nothing.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fatalf("cpu profile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fatalf("cpu profile: %v", err)
		}
	}
}

// writeMemProfile writes the allocation profile of everything since
// process start (sample_index=alloc_space is the useful view: the worlds
// are garbage by now).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("mem profile: %v", err)
	}
	runtime.GC() // fold the last cycle's frees and allocations into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fatalf("mem profile: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("mem profile: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
