package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"ashs/internal/bench"
)

func TestPickCellsFailsLoudlyOnMissingLabel(t *testing.T) {
	cfg := &bench.Config{Parallel: 1}
	if _, cells, err := pickCells(cfg, "scale", "scale/udp-ash/N=512"); err != nil || len(cells) != 1 {
		t.Fatalf("existing label: %d cells, err %v", len(cells), err)
	}
	_, _, err := pickCells(cfg, "scale", "scale/udp-ash/N=512", "scale/udp-ash/N=3")
	if err == nil || !strings.Contains(err.Error(), "scale/udp-ash/N=3") {
		t.Fatalf("missing label must be named in the error, got %v", err)
	}
	if _, _, err := pickCells(cfg, "no-such-experiment"); err == nil {
		t.Fatal("unknown experiment must be an error")
	}
	if _, err := findWorkload("no-such-workload"); err == nil {
		t.Fatal("unknown workload must be an error")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "bench", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Layer: "dpf", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Layer: "dpf", StartNs: 20, EndNs: 50},   // overlaps span 2
		{ID: 4, Parent: 1, Layer: "sim", StartNs: 90, EndNs: 120},  // runs past its parent
		{ID: 5, Parent: 3, Layer: "vcode", StartNs: 25, EndNs: 35}, // grandchild
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	byLayer := layerSelfNs(spans)
	if byLayer["dpf"] != 40 || byLayer["bench"] != 50 || byLayer["vcode"] != 10 {
		t.Fatalf("layer self times %v", byLayer)
	}
}

func TestTracerNestsAndAdopts(t *testing.T) {
	tr := newTracer(time.Time{}, "w")
	root := tr.begin("bench", "workload:w")
	tr.adopt([]span{{ID: 1, Parent: 0, Name: "rep"}, {ID: 2, Parent: 1, Name: "cell:x"}})
	leaf := tr.begin("sim", "replay:sim.event_ns")
	tr.end(leaf)
	tr.end(root)
	if got := []int{tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent}; !reflect.DeepEqual(got, []int{1, 2, 1}) {
		t.Fatalf("parents %v, want [1 2 1]", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "y")) // a nil tracer records nothing and must not panic
}

// Quartiles must match Python's statistics.quantiles(values, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates, as Python does
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
	} {
		q := summarize(c.in)
		if q.Q1 != c.q1 || q.Med != c.med || q.Q3 != c.q3 || q.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want %v %v %v", c.in, q, c.q1, c.med, c.q3)
		}
	}
	if q := summarize([]float64{7}); q.Med != 7 || q.spread() != 0 {
		t.Errorf("single sample: %+v", q)
	}
	if median(nil) != 0 {
		t.Error("median of nothing must be 0")
	}
}

func inProcess(o jobOpts) (*repResult, error) { return runJob(o) }

// Every workload runs at smoke size, twice, and must be deterministic and
// report every end-to-end metric.
func TestSmokeEveryWorkloadUntraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		m, err := measure(w, measureOpts{Seed: 3, MinReps: 2, MemReps: 1, Smoke: true, runRep: inProcess})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !m.correct() || m.Attempted == 0 || len(m.Reps) != 2 || len(m.Memory) != 1 {
			t.Errorf("%s: attempted %d failed %d problems %v reps %d memory reps %d",
				w.Name, m.Attempted, m.Failed, m.Problems, len(m.Reps), len(m.Memory))
		}
		c := m.contract(false)
		if len(c.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics in the result line, want %d", w.Name, len(c.Metrics), len(endToEnd))
		}
		if c.Metrics["wall_s"].Value <= 0 || c.Metrics["alloc_mb"].Value <= 0 || c.Metrics["peak_rss_mb"].Value <= 0 {
			t.Errorf("%s: wall_s/alloc_mb/peak_rss_mb must be positive: %+v", w.Name, c.Metrics)
		}
	}
}

// One traced measurement at smoke size: every per-layer metric is present,
// every layer has self time, and the result line survives a round trip.
func TestSmokeTracedPass(t *testing.T) {
	initReplays(true)
	w, err := findWorkload("chaos")
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(w, measureOpts{Seed: 1, Smoke: true, Trace: true, runRep: inProcess})
	if err != nil {
		t.Fatal(err)
	}
	if !m.correct() {
		t.Fatalf("problems %v, failed %d", m.Problems, m.Failed)
	}
	layers := map[string]bool{}
	for _, d := range perLayer {
		if _, ok := m.PerLayer[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
		if d.Source == "R" {
			layers[d.Layer] = true
			if m.PerLayer[d.Name] <= 0 {
				t.Errorf("replay %s measured %v", d.Name, m.PerLayer[d.Name])
			}
		}
	}
	for l := range layers {
		if m.LayerSelfMs[l] <= 0 {
			t.Errorf("layer %s has no self time", l)
		}
	}
	for _, name := range []string{"fault.injected", "netdev.frames_sent", "sim.sim_ms", "obs.phase_cyc.wire", "bench.sim_mbps"} {
		if m.PerLayer[name] <= 0 {
			t.Errorf("chaos must define %s, got %v", name, m.PerLayer[name])
		}
	}

	line, err := json.Marshal(m.contract(true))
	if err != nil {
		t.Fatal(err)
	}
	var back contractLine
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m.contract(true)) {
		t.Error("result line changed in a JSON round trip")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line must have exactly correct, attempted, failed, metrics: %s", line)
	}

	path := t.TempDir() + "/out/trace.json"
	if err := writeTrace(path, []*measurement{m}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) != len(m.spans) {
		t.Fatalf("trace file: %v, %d spans, want %d", err, len(tf.Spans), len(m.spans))
	}
	ids := map[int]bool{0: true}
	for _, s := range tf.Spans {
		ids[s.ID] = true
		if s.EndNs < s.StartNs || s.Workload != "chaos" {
			t.Fatalf("bad span %+v", s)
		}
	}
	for _, s := range tf.Spans {
		if !ids[s.Parent] {
			t.Fatalf("span %d names a parent %d that does not exist", s.ID, s.Parent)
		}
	}
}

func TestGoldenGate(t *testing.T) {
	if d := firstDiff("a\nb\n", "a\nb\n"); d != "" {
		t.Errorf("equal texts differ: %s", d)
	}
	if d := firstDiff("a\nb\n", "a\nc\n"); !strings.Contains(d, "line 2") {
		t.Errorf("diff must name line 2: %s", d)
	}
	path := t.TempDir() + "/suite.txt"
	if err := os.WriteFile(path, []byte("  row one\n  row two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d := missingRow(path, []string{"  row two", "  row one"}); d != "" {
		t.Errorf("present rows reported missing: %s", d)
	}
	if d := missingRow(path, []string{"row one"}); d == "" {
		t.Error("a row must match a whole line verbatim")
	}
	if d := missingRow(path+".absent", []string{"x"}); d == "" {
		t.Error("an unreadable suite output must fail the gate")
	}
}

func TestCompareSetsAppliesBoundsAndExactness(t *testing.T) {
	e2e := func(wall, setup float64) map[string]quartiles {
		out := map[string]quartiles{}
		for _, d := range endToEnd {
			out[d.Name] = quartiles{N: 5, Med: 100}
		}
		out["wall_s"] = quartiles{N: 5, Med: wall}
		out["setup_s"] = quartiles{N: 5, Med: setup}
		return out
	}
	a := []*measurement{
		{Workload: "w", EndToEnd: e2e(1.00, 0.002)},
		{Workload: "w", PerLayer: map[string]float64{"bench.msgs": 10, "sim.event_ns": 30}},
	}
	b := []*measurement{
		{Workload: "w", EndToEnd: e2e(1.30, 0.004)}, // wall +30 %: over; setup doubled but within 20 ms
		{Workload: "w", PerLayer: map[string]float64{"bench.msgs": 11, "sim.event_ns": 90}},
	}
	got := map[string]bool{}
	for _, r := range compareSets(a, b) {
		got[r.Metric] = r.OK
	}
	if got["wall_s"] || !got["setup_s"] || !got["cpu_s"] || got["bench.msgs"] {
		t.Errorf("verdicts %v", got)
	}
	if _, gated := got["sim.event_ns"]; gated {
		t.Error("replay timings are host noise and must not be gated as exact")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	h := newHeader(7, 5, 12)
	h.finish()
	in := report{Header: h, Measurements: []*measurement{{
		Workload: "fanin", Seed: 7, Attempted: 10, Noisy: true,
		EndToEnd: map[string]quartiles{"wall_s": {N: 5, Q1: 1, Med: 2, Q3: 3}},
	}}}
	path := t.TempDir() + "/report.json"
	if err := writeJSON(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("report changed in a round trip:\n in %+v\nout %+v", in, out)
	}
	var buf bytes.Buffer
	h.print(&buf)
	for _, want := range []string{"seed 7", "nproc", "loadavg start", h.GoVersion} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("header lacks %q: %s", want, buf.String())
		}
	}
}

// BENCHMARK.json must say exactly what the code emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed, fromCode any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, fromCode) {
		t.Error("BENCHMARK.json differs from `perfbench -benchmark-json`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("BENCHMARK.json contract limits violated")
	}
}

func TestHostSlowdown(t *testing.T) {
	if got := hostSlowdown([]*repResult{{}, {}}); got != 1 {
		t.Errorf("no samples must read 1, got %v", got)
	}
	twice := refSample{SpinNs: 2 * refNominal.SpinNs, TouchNs: 2 * refNominal.TouchNs, HandoffNs: 2 * refNominal.HandoffNs}
	reps := []*repResult{{Ref: []refSample{refNominal, twice}}, {Ref: []refSample{twice, twice}}, {Ref: []refSample{twice}}}
	if got := hostSlowdown(reps); math.Abs(got-2) > 1e-12 {
		t.Errorf("a host twice as slow must read 2, got %v", got)
	}
	s := hostRef()
	if s.SpinNs <= 0 || s.TouchNs <= 0 || s.HandoffNs <= 0 {
		t.Errorf("reference work timed %+v", s)
	}
	// The time metrics are divided by the slowdown, the memory ones are not,
	// and peak_rss_mb comes from the memory repetition alone.
	m, err := measure(&workloads[0], measureOpts{Seed: 1, MinReps: 1, MemReps: 1, Smoke: true,
		runRep: func(o jobOpts) (*repResult, error) {
			if o.Memory {
				return &repResult{PeakRSSKB: 2048, Attempted: 1}, nil
			}
			return &repResult{WallS: 3, UserS: 1, SysS: 1, SetupS: 0.5, PeakRSSKB: 9999, AllocBytes: 4 << 20,
				Attempted: 1, Ref: []refSample{twice}}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"wall_s": 1.5, "cpu_s": 1, "setup_s": 0.25, "peak_rss_mb": 2, "alloc_mb": 4} {
		if got := m.contract(false).Metrics[name].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "fanin", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || o.workload != "fanin" || o.seed != 9 || o.seconds != 3 || o.trace != 1 {
		t.Fatalf("driver flags: %+v, %v", o, err)
	}
	if _, err := parseFlags([]string{"--trace", "2"}); err == nil {
		t.Error("-trace 2 must be rejected")
	}
	if _, err := parseFlags([]string{"stray"}); err == nil {
		t.Error("a stray argument must be rejected")
	}
}

func TestHelpers(t *testing.T) {
	if countBad(1, 2.5) != 0 || countBad(0, math.NaN(), math.Inf(1), -1) != 4 {
		t.Error("countBad")
	}
	if mean(1, 2, 3) != 2 || math.Abs(geomean(2, 8)-4) > 1e-12 {
		t.Error("mean/geomean")
	}
	if got := lines("a\n\n  \nb\n"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("lines: %q", got)
	}
	pool := churnPool(5, 8)
	if pool[0].Fingerprint() == pool[1].Fingerprint() || pool[0].Fingerprint() != churnPool(5, 8)[0].Fingerprint() {
		t.Error("churnPool must be distinct within a seed and equal across calls")
	}
}
