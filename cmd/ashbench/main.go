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
// every parallelism level (contract.sh refuses to write otherwise); only
// wall time changes.
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
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"ashs/internal/aegis"
	"ashs/internal/bench"
	"ashs/internal/obs"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
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

	refBefore := timeHostRef()
	stopCPU := startCPUProfile(*cpuProf)
	start := time.Now()
	var notes, perExp, work, allocs strings.Builder
	var outs []bench.Output
	if *parallel == 1 {
		// Serial, one experiment at a time, so what each allocated is the
		// runtime's count across its run, and its wall time over the events
		// its engines fired is the host's cost per simulated event.
		for _, e := range selected {
			bytes0, objects0 := goAllocs()
			t0 := time.Now()
			outs = append(outs, bench.RunExperiments(cfg, []*bench.Experiment{e})...)
			wall := time.Since(t0)
			bytes1, objects1 := goAllocs()
			fmt.Fprintf(&allocs, "[go alloc %s: %.1f MiB, %d objects, %.2f ms wall, %s]\n",
				e.Name, float64(bytes1-bytes0)/(1<<20), objects1-objects0,
				float64(wall)/float64(time.Millisecond), nsPerEvent(wall, outs[len(outs)-1].Engines.Fired))
		}
	} else {
		outs = bench.RunExperiments(cfg, selected)
	}
	var total bench.EngineCounts
	for _, out := range outs {
		fmt.Print(out.Text)
		fmt.Println()
		notes.WriteString(out.Notes)
		perExp.WriteString(engineLine(" "+out.Name, out.Engines))
		fmt.Fprintf(&work, "[host work %s: dpf %d insert probes, %d walk steps]\n",
			out.Name, out.Engines.DPF.InsertProbes, out.Engines.DPF.WalkSteps)
		total = total.Add(out.Engines)
	}
	stopCPU()
	refAfter := timeHostRef()
	writeMemProfile(*memProf)
	// Stdout is the result and stays byte-identical across runs and
	// parallelism levels. Stderr describes the simulator itself. Every line
	// below except the wall time, [go runtime: …], [go host …] and
	// [go alloc …] is reproducible run to run at -parallel 1, so
	// contract.sh gates all the others: it writes the -quick -parallel 1
	// run's stderr, less those lines, to ashbench_counts.txt. A value that
	// turns out not to repeat at -parallel 1 belongs in the
	// [go runtime: …] line.
	fmt.Fprintf(os.Stderr, "[%d experiment(s) ran in %.1fs wall]\n", len(selected), time.Since(start).Seconds())
	// The host-memory pool: every cell closes its world, so leases ==
	// returned, and grown stays near the worker count times the few host
	// sizes. A cell that stops closing shows as grown jumping. Zeroed is
	// what the returns cleared, the pages hosts wrote: like leases and
	// returned it does not depend on -parallel.
	a := aegis.ArenaStats()
	fmt.Fprintf(os.Stderr, "[host memory arenas: %d leases, %d returned, %d grown, %.1f MiB zeroed on return]\n",
		a.Leases, a.Returned, a.Grown, float64(a.ZeroedBytes)/(1<<20))
	// The compile cache: how often a download reused a verified build.
	// Cells that miss on the same program at once each count a miss, so the
	// counts move with -parallel.
	hits, misses := sandbox.CacheStats()
	fmt.Fprintf(os.Stderr, "[compile cache: %d hits, %d misses, %d entries]\n", hits, misses, sandbox.CacheEntries())
	// The simulator's own Go runtime cost, the collector's above all: it
	// moves with the machine and -parallel, run to run.
	fmt.Fprintln(os.Stderr, goRuntimeLine())
	// The host: CPU time and peak memory from the kernel, and the reference
	// work that says how fast the machine was running (hostref.go).
	fmt.Fprintln(os.Stderr, hostLine(refBefore, refAfter))
	// At -parallel 1, what each experiment allocated (runtime/metrics, with
	// the span-sized slack of its accounting).
	fmt.Fprint(os.Stderr, allocs.String())
	// The schedule, per experiment and then in total: closed, fired,
	// cancelled and handoffs are functions of the simulations alone;
	// elided (how many of those handoffs the sleeping process took itself,
	// no event and no switch) and cascades are what the event queue did
	// with them.
	fmt.Fprint(os.Stderr, perExp.String())
	fmt.Fprint(os.Stderr, engineLine("", total))
	// Which of those handoffs cost a coroutine switch: taken in place (a
	// blocked process fired its own wake-up), made (a switch each way), of
	// those made the direct ones (a blocked process resumed the next process
	// itself, not the engine), and the idle coroutines the processes left
	// for the next ones (the pool follows -parallel).
	fmt.Fprintf(os.Stderr, "[sim switches: %d in place, %d made, %d of them direct, %d coroutines pooled]\n",
		total.InPlace, total.Handoffs-total.Elided-total.InPlace, total.Direct, sim.PooledCoroutines())
	// The host work per experiment, in exact units that do not depend on
	// the machine or -parallel: the DPF engines' install probes and demux
	// walk steps.
	fmt.Fprint(os.Stderr, work.String())
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

// goRuntimeLine reports, from runtime/metrics, the process's GC cycles, the
// CPU time the collector took of all the CPU time the process used (the
// total available at GOMAXPROCS less idle), and the bytes it allocated. The
// CPU times are the runtime's estimates, brought up to date at each
// collection.
func goRuntimeLine() string {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return fmt.Sprintf("[go runtime: %d GC cycles, %.3f s GC CPU of %.3f s total, %.1f MiB allocated]",
		s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()-s[3].Value.Float64(),
		float64(s[4].Value.Uint64())/(1<<20))
}

// goAllocs reports, from runtime/metrics, the bytes and objects the process
// has allocated on the heap since it started.
func goAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// engineLine prints one schedule count line; label is "" for the total.
func engineLine(label string, e bench.EngineCounts) string {
	return fmt.Sprintf("[sim engines%s: %d closed, %d fired, %d cancelled, %d handoffs, %d elided, %d cascades]\n",
		label, e.Closed, e.Fired, e.Cancelled, e.Handoffs, e.Elided, e.Cascades)
}

// nsPerEvent is wall time over the events fired, as the [go alloc …] line
// prints it.
func nsPerEvent(wall time.Duration, fired uint64) string {
	if fired == 0 {
		return "no events"
	}
	return fmt.Sprintf("%.0f ns/event", float64(wall.Nanoseconds())/float64(fired))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
