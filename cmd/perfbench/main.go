// Command perfbench is the repository's benchmark: seven fixed workloads
// measured on the host clock end to end, gated on the simulated clock by
// committed goldens, with a traced pass that replays every layer from
// outside and reads the deterministic counters the layers already export.
//
//	bash cmd/perfbench/run.sh                                  # every workload, both passes
//	bash cmd/perfbench/run.sh --workload fanin --seed 1 --seconds 15 --trace 0
//	bash cmd/perfbench/run.sh -selfcheck                       # A/A agreement
//
// See README.md in this directory for the workloads, the metrics and what
// each is predicted to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Paths are relative to the repository root, where run.sh starts the
// program.
const (
	outDir    = "cmd/perfbench/out"
	goldenDir = "cmd/perfbench/testdata/golden"
)

type options struct {
	workload      string
	seed          int64
	seconds       float64
	trace         int
	reps          int
	smoke         bool
	selfcheck     bool
	updateGolden  bool
	benchmarkJSON bool
	traceOut      string
	child, traced bool
	spawned       int64
	epoch         int64
}

func parseFlags(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's JSON line (default: all, both passes)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; only chaos and the download-churn handler pool move with it")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "seconds each measurement keeps starting repetitions")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports end-to-end metrics, 1 the per-layer metrics")
	fs.IntVar(&o.reps, "reps", 5, "least number of untraced repetitions per measurement")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny job sizes (tests); no golden applies")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the full set twice and compare against the bounds")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite the goldens from a seed-1 run")
	fs.BoolVar(&o.benchmarkJSON, "benchmark-json", false, "print BENCHMARK.json as the code defines it")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file (default "+outDir+"/trace.json, trace-<workload>.json with -workload)")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result")
	fs.BoolVar(&o.traced, "traced", false, "internal: the repetition records spans and counts")
	fs.Int64Var(&o.spawned, "spawned", 0, "internal: when the parent started this process, unix ns")
	fs.Int64Var(&o.epoch, "epoch", 0, "internal: origin of span timestamps, unix ns")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace takes 0 or 1")
	}
	return &o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errFailed = errors.New("outputs were wrong or operations failed; see FAIL lines")

func run(o *options, out io.Writer) error {
	switch {
	case o.child:
		return runChild(o, out)
	case o.updateGolden:
		return updateGolden(out)
	case o.benchmarkJSON:
		_, err := out.Write(benchmarkJSON())
		return err
	}
	initReplays(o.smoke)
	if o.selfcheck {
		return selfcheck(o, out)
	}
	if o.workload != "" {
		return runOne(o, out)
	}
	_, err := runAll(o, out)
	return err
}

func runChild(o *options, out io.Writer) error {
	jo := jobOpts{Workload: o.workload, Seed: o.seed, Smoke: o.smoke, Traced: o.traced}
	if o.spawned != 0 {
		jo.Spawned = time.Unix(0, o.spawned)
	}
	if o.epoch != 0 {
		jo.Epoch = time.Unix(0, o.epoch)
	}
	res, err := runJob(jo)
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(res)
}

func (o *options) measureOpts(trace bool) measureOpts {
	return measureOpts{Seed: o.seed, Seconds: o.seconds, MinReps: o.reps, MemReps: memoryReps,
		Smoke: o.smoke, Trace: trace, runRep: spawnRep}
}

// runOne is driver mode: one workload, one pass, and the result object as
// the last line of standard output.
func runOne(o *options, out io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	h := newHeader(o.seed, o.reps, o.seconds)
	m, err := measure(w, o.measureOpts(o.trace == 1))
	if err != nil {
		return err
	}
	h.finish()
	h.print(out)
	ms := []*measurement{m}
	printEndToEnd(out, ms)
	printPerLayer(out, ms)
	printProblems(out, ms)
	if o.trace == 1 {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(outDir, "trace-"+w.Name+".json")
		}
		if err := writeTrace(path, ms); err != nil {
			return err
		}
		fmt.Fprintln(out, "trace written to", path)
	}
	line, err := json.Marshal(m.contract(o.trace == 1))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runAll measures every workload untraced, then traced, prints every
// metric, and writes the trace and the JSON report.
func runAll(o *options, out io.Writer) (*report, error) {
	rep := &report{Header: newHeader(o.seed, o.reps, o.seconds)}
	for _, trace := range []bool{false, true} {
		for i := range workloads {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced=%v)\n", workloads[i].Name, trace)
			m, err := measure(&workloads[i], o.measureOpts(trace))
			if err != nil {
				return nil, err
			}
			rep.Measurements = append(rep.Measurements, m)
		}
	}
	rep.Header.finish()
	rep.Header.print(out)
	printWorkloads(out)
	printEndToEnd(out, rep.Measurements)
	printPerLayer(out, rep.Measurements)
	bad := printProblems(out, rep.Measurements)
	path, reportPath := o.traceOut, filepath.Join(outDir, "report.json")
	if path == "" {
		path = filepath.Join(outDir, "trace.json")
	}
	if err := writeTrace(path, rep.Measurements); err != nil {
		return nil, err
	}
	if err := writeJSON(reportPath, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "\ntrace written to %s, report to %s\n", path, reportPath)
	if bad {
		return rep, errFailed
	}
	return rep, nil
}

// updateGolden reruns every workload at seed 1 in this process and writes
// the rendered simulated output as the new goldens.
func updateGolden(out io.Writer) error {
	for _, w := range workloads {
		res, err := runJob(jobOpts{Workload: w.Name, Seed: 1, Ungated: true})
		if err != nil {
			return err
		}
		path := filepath.Join(goldenDir, w.Name+".txt")
		if err := os.WriteFile(path, []byte(res.Text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", path, len(res.Text))
	}
	return nil
}

// setupSlackS is the absolute slack on setup_s: set-up takes milliseconds,
// so a quarter of it is below what two cold starts differ by.
const setupSlackS = 0.020

// checkRow is one line of the selfcheck table.
type checkRow struct {
	Workload, Metric string
	A, B, Bound      float64
	Exact, OK        bool
}

func (r checkRow) relDiff() float64 {
	if r.A == 0 {
		return math.Abs(r.B)
	}
	return math.Abs(r.B-r.A) / math.Abs(r.A)
}

// compareSets lines up two runs of one commit: host metrics must agree
// within their bounds, and every count must agree exactly.
func compareSets(a, b []*measurement) []checkRow {
	var rows []checkRow
	for i, ma := range a {
		mb := b[i]
		if ma.EndToEnd != nil {
			for _, d := range endToEnd {
				r := checkRow{Workload: ma.Workload, Metric: d.Name, Bound: d.Bound,
					A: ma.EndToEnd[d.Name].Med, B: mb.EndToEnd[d.Name].Med}
				r.OK = r.relDiff() <= d.Bound ||
					(d.Name == "setup_s" && math.Abs(r.B-r.A) <= setupSlackS)
				rows = append(rows, r)
			}
		}
		for _, d := range perLayer {
			if ma.PerLayer == nil || !d.exact() {
				continue
			}
			r := checkRow{Workload: ma.Workload, Metric: d.Name, Exact: true,
				A: ma.PerLayer[d.Name], B: mb.PerLayer[d.Name]}
			r.OK = r.A == r.B
			rows = append(rows, r)
		}
	}
	return rows
}

// selfcheck runs the full set twice back to back and fails if the two
// disagree by more than the benchmark's own bounds.
func selfcheck(o *options, out io.Writer) error {
	a, err := runAll(o, out)
	if err != nil {
		return err
	}
	b, err := runAll(o, out)
	if err != nil {
		return err
	}
	rows := compareSets(a.Measurements, b.Measurements)
	fmt.Fprintln(out, "\nSelfcheck (A/A): two runs of the same code")
	fmt.Fprintf(out, "  %-15s %-30s %14s %14s %8s %8s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "")
	bad := 0
	for _, r := range rows {
		bound, verdict := fmt.Sprintf("%.0f%%", 100*r.Bound), "ok"
		if r.Exact {
			bound = "exact"
		}
		if !r.OK {
			verdict = "FAIL"
			bad++
		}
		if r.Exact && r.OK && r.A == 0 {
			continue // not defined on this workload
		}
		fmt.Fprintf(out, "  %-15s %-30s %14.6g %14.6g %7.2f%% %8s  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.relDiff(), bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code", bad)
	}
	fmt.Fprintln(out, "selfcheck passed")
	return nil
}
