package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// header records the conditions of a run, so a number is never read
// without them.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of every repetition's process
	Seed       int64   `json:"seed"`
	MinReps    int     `json:"min_reps"`
	Seconds    float64 `json:"seconds"`
	LoadStart  string  `json:"loadavg_start"`
	LoadEnd    string  `json:"loadavg_end"`
	// Noisy is set when the one-minute load average exceeded the CPU
	// count at either end of the run.
	Noisy bool `json:"noisy"`
}

func newHeader(seed int64, minReps int, seconds float64) header {
	commit := "unknown" // a benchmark checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: childProcs, Seed: seed, MinReps: minReps, Seconds: seconds,
		LoadStart: loadavg()}
}

func (h *header) finish() {
	h.LoadEnd = loadavg()
	for _, l := range []string{h.LoadStart, h.LoadEnd} {
		if one, err := strconv.ParseFloat(strings.SplitN(l, " ", 2)[0], 64); err == nil && one > float64(h.NumCPU) {
			h.Noisy = true
		}
	}
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(data))
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench: commit %s, %s, nproc %d, GOMAXPROCS %d per repetition, seed %d, min reps %d, %.0f s per measurement\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.MinReps, h.Seconds)
	fmt.Fprintf(w, "  loadavg start [%s] end [%s]", h.LoadStart, h.LoadEnd)
	if h.Noisy {
		fmt.Fprint(w, "  ** noisy: 1-min load above nproc **")
	}
	fmt.Fprintln(w)
}

// report is the full-run JSON document written beside the trace.
type report struct {
	Header       header         `json:"header"`
	Measurements []*measurement `json:"measurements"`
}

func arrow(better string) string {
	if better == "higher" {
		return "^"
	}
	return "v"
}

// printWorkloads prints each workload with its loop and its reason.
func printWorkloads(w io.Writer) {
	fmt.Fprintln(w, "\nWorkloads")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-15s (%s) %s\n", wl.Name, wl.Loop, wl.Why)
	}
}

// printEndToEnd prints every end-to-end metric of every untraced
// measurement with its unit, direction, bound, quartiles and sample count.
func printEndToEnd(w io.Writer, ms []*measurement) {
	untraced := false
	for _, m := range ms {
		untraced = untraced || m.EndToEnd != nil
	}
	if !untraced {
		return
	}
	fmt.Fprintln(w, "\nEnd-to-end metrics (value = median of n repetitions, for peak_rss_mb of n memory repetitions; v lower is better;")
	fmt.Fprintln(w, " spread = IQR/median over repetitions; times divided by the host slowdown)")
	fmt.Fprintf(w, "  %-15s %-12s %-5s %3s %6s %10s  %-30s %7s\n", "workload", "metric", "unit", "dir", "bound", "value", "[q1 .. q3] n", "spread")
	for _, m := range ms {
		if m.EndToEnd == nil {
			continue
		}
		for _, d := range endToEnd {
			q := m.EndToEnd[d.Name]
			flag := ""
			if d.Name == "wall_s" && m.Noisy {
				flag = "  ** noisy **"
			}
			fmt.Fprintf(w, "  %-15s %-12s %-5s %3s %5.0f%% %10.4f  %-30s %6.1f%%%s\n",
				m.Workload, d.Name, d.Unit, arrow(d.Better), 100*d.Bound, q.Med,
				fmt.Sprintf("[%.4f .. %.4f] %d", q.Q1, q.Q3, q.N), 100*q.spread(), flag)
		}
		fmt.Fprintf(w, "  %-15s %-12s attempted %d, failed %d, correct %v\n",
			m.Workload, "operations", m.Attempted, m.Failed, m.correct())
		fmt.Fprintf(w, "  %-15s %-12s host slowdown %.3f; wall_s as measured:", m.Workload, "raw", m.HostSlowdown)
		for _, v := range repValues(m.Reps, "wall_s") {
			fmt.Fprintf(w, " %.3f", v)
		}
		fmt.Fprint(w, "; peak_rss_mb of the memory repetitions:")
		for _, v := range repValues(m.Memory, "peak_rss_mb") {
			fmt.Fprintf(w, " %.1f", v)
		}
		fmt.Fprintln(w)
	}
}

// printPerLayer prints the traced measurements side by side: one row per
// metric, one column per workload.
func printPerLayer(w io.Writer, ms []*measurement) {
	var traced []*measurement
	for _, m := range ms {
		if m.PerLayer != nil {
			traced = append(traced, m)
		}
	}
	if len(traced) == 0 {
		return
	}
	fmt.Fprintln(w, "\nPer-layer metrics (traced pass; R replay, C count, H host accounting; 0 = not defined on that workload)")
	fmt.Fprintf(w, "  %-30s %-10s %3s %3s", "metric", "unit", "src", "dir")
	for _, m := range traced {
		fmt.Fprintf(w, " %14s", m.Workload)
	}
	fmt.Fprintln(w, "  should move")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %-10s %3s %3s", d.Name, d.Unit, d.Source, arrow(d.Better))
		for _, m := range traced {
			fmt.Fprintf(w, " %14s", strconv.FormatFloat(m.PerLayer[d.Name], 'g', 6, 64))
		}
		fmt.Fprintln(w, " ", d.Moves)
	}
	fmt.Fprintln(w, "\nLayer self time in the traced pass (ms: span duration minus child coverage)")
	printed := map[string]bool{}
	for _, d := range perLayer { // layers in table order
		if _, has := traced[0].LayerSelfMs[d.Layer]; !has || printed[d.Layer] {
			continue
		}
		printed[d.Layer] = true
		fmt.Fprintf(w, "  %-30s %-18s", d.Layer, "")
		for _, m := range traced {
			fmt.Fprintf(w, " %14.1f", m.LayerSelfMs[d.Layer])
		}
		fmt.Fprintln(w)
	}
}

func printProblems(w io.Writer, ms []*measurement) (bad bool) {
	for _, m := range ms {
		for _, p := range m.Problems {
			fmt.Fprintln(w, "FAIL:", p)
			bad = true
		}
		if m.Failed > 0 {
			fmt.Fprintf(w, "FAIL: %s: %d of %d operations failed\n", m.Workload, m.Failed, m.Attempted)
			bad = true
		}
	}
	return bad
}

// contractLine is the last line of standard output in driver mode.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *measurement) contract(trace bool) contractLine {
	c := contractLine{Correct: m.correct(), Attempted: max(m.Attempted, 1), Failed: m.Failed,
		Metrics: map[string]contractMetric{}}
	if trace {
		for _, d := range perLayer {
			c.Metrics[d.Name] = contractMetric{m.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			c.Metrics[d.Name] = contractMetric{m.EndToEnd[d.Name].Med, d.Unit}
		}
	}
	return c
}

// writeJSON writes v to path, creating the directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceFile is what -trace-out holds: every span of the traced pass and
// each layer's self time per workload.
type traceFile struct {
	Spans       []span                        `json:"spans"`
	LayerSelfMs map[string]map[string]float64 `json:"layer_self_ms"` // workload -> layer -> ms
}

func writeTrace(path string, ms []*measurement) error {
	tf := traceFile{LayerSelfMs: map[string]map[string]float64{}}
	for _, m := range ms {
		if m.PerLayer == nil {
			continue
		}
		tf.Spans = renumber(tf.Spans, m.spans, 0)
		tf.LayerSelfMs[m.Workload] = m.LayerSelfMs
	}
	return writeJSON(path, tf)
}
