package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// childProcs is what every timed repetition runs with: the machine has two
// CPUs, and one generator process with at most that many threads keeps the
// numbers about the program rather than the scheduler.
const childProcs = 2

// memoryReps is how many memory repetitions the command's untraced
// measurements run before their timed ones; peak_rss_mb is their median.
const memoryReps = 3

// memoryEnv is what a memory repetition runs with. A process's resident-set
// peak is its live memory plus the garbage the collector had not yet freed
// when the next world was built, and with a concurrent collector the second
// part follows how the host schedules the collector's thread: at GOMAXPROCS=2
// rtt-small peaks at 53, 61 or 69 MiB, overload-open at 179 or 227, fanin
// anywhere from 311 to 437, and which of them stays the same for minutes at a
// time, so no statistic over repetitions is steady. One thread, a
// stop-the-world collector (its trigger then depends on allocation alone) and
// MADV_FREE (pages the scavenger returns stay resident until the kernel wants
// them, so its pace does not matter either) leave the job's own memory: run
// medians then spread under 1 % (BASELINE.md, section 3).
var memoryEnv = []string{"GOMAXPROCS=1", "GODEBUG=gcstoptheworld=1,madvdontneed=0"}

// measureOpts selects one measurement of one workload.
type measureOpts struct {
	Seed    int64
	Seconds float64 // keep starting repetitions until this much time has passed
	MinReps int     // and at least this many have run
	MemReps int     // memory repetitions of an untraced measurement
	Smoke   bool
	Trace   bool
	// runRep runs one repetition. The command spawns a child process; the
	// tests substitute an in-process call.
	runRep func(jobOpts) (*repResult, error)
}

// measurement is one workload measured once: memory repetitions and timed
// untraced repetitions, or in a traced measurement the replays and pairs of
// untraced and traced repetitions.
type measurement struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Reps     []*repResult `json:"-"`
	Memory   []*repResult `json:"-"`
	Traced   []*repResult `json:"-"`

	// EndToEnd holds the metrics as reported: the three time metrics are
	// divided by HostSlowdown, alloc_mb is as measured, and peak_rss_mb is
	// summarized over Memory instead of Reps.
	EndToEnd     map[string]quartiles `json:"end_to_end,omitempty"`
	HostSlowdown float64              `json:"host_slowdown"`
	PerLayer     map[string]float64   `json:"per_layer,omitempty"`
	// LayerSelfMs is each layer's self time in the traced pass.
	LayerSelfMs map[string]float64 `json:"layer_self_ms,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Noisy marks a measurement whose numbers should not be read as clean:
	// the wall_s quartile spread across repetitions exceeded noisySpread.
	Noisy bool `json:"noisy"`

	spans []span
}

func (m *measurement) correct() bool { return len(m.Problems) == 0 && m.Failed == 0 }

// spawnRep runs one repetition in a child process of this executable, so
// the repetition pays a cold start and has its own memory high-water mark.
// A memory repetition runs under memoryEnv and is not timed: it gets no
// spawn time, so it skips the host-speed reference too.
func spawnRep(o jobOpts) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.Workload,
		"-seed", strconv.FormatInt(o.Seed, 10),
		"-epoch", strconv.FormatInt(o.Epoch.UnixNano(), 10)}
	if o.Traced {
		args = append(args, "-traced")
	}
	if o.Smoke {
		args = append(args, "-smoke")
	}
	env := memoryEnv
	if !o.Memory {
		env = []string{"GOMAXPROCS=" + strconv.Itoa(childProcs)}
		args = append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", o.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s repetition printed no result: %w", o.Workload, err)
	}
	return &res, nil
}

// measure runs one workload for o.Seconds. Untraced, it runs the memory
// repetitions, then repeats the job in fresh children and summarizes the
// end-to-end metrics. Traced, it first replays every layer, then alternates
// untraced and traced repetitions: the traced ones supply spans and counts,
// the pairing supplies the overhead.
func measure(w *workload, o measureOpts) (*measurement, error) {
	start := time.Now()
	m := &measurement{Workload: w.Name, Seed: o.Seed}
	var tr *tracer
	if o.Trace {
		tr = newTracer(start, w.Name)
	}
	root := tr.begin("bench", "workload:"+w.Name)
	var replayed map[string]float64
	if o.Trace {
		replayed = runReplays(tr)
	}
	rep := func(traced bool) error {
		r, err := o.runRep(jobOpts{Workload: w.Name, Seed: o.Seed, Smoke: o.Smoke,
			Traced: traced, Epoch: start})
		if err != nil {
			return err
		}
		if traced {
			m.Traced = append(m.Traced, r)
			tr.adopt(r.Spans)
		} else {
			m.Reps = append(m.Reps, r)
		}
		return nil
	}
	minReps := o.MinReps
	if o.Trace {
		minReps = 2 // pairs; the replays have used part of the run already
	} else {
		for i := 0; i < o.MemReps; i++ {
			r, err := o.runRep(jobOpts{Workload: w.Name, Seed: o.Seed, Smoke: o.Smoke, Memory: true})
			if err != nil {
				return nil, err
			}
			m.Memory = append(m.Memory, r)
		}
	}
	for len(m.Reps) < minReps || time.Since(start).Seconds() < o.Seconds {
		if err := rep(false); err != nil {
			return nil, err
		}
		if o.Trace {
			if err := rep(true); err != nil {
				return nil, err
			}
		}
	}
	tr.end(root)

	m.check(w)
	m.HostSlowdown = hostSlowdown(m.Reps)
	if !o.Trace {
		// End-to-end metrics come only from untraced measurements.
		m.EndToEnd = map[string]quartiles{}
		for _, d := range endToEnd {
			reps := m.Reps
			if d.Name == "peak_rss_mb" {
				reps = m.Memory
			}
			q := summarize(repValues(reps, d.Name))
			if d.Unit == "s" {
				q.Q1, q.Med, q.Q3 = q.Q1/m.HostSlowdown, q.Med/m.HostSlowdown, q.Q3/m.HostSlowdown
			}
			m.EndToEnd[d.Name] = q
		}
		m.Noisy = m.EndToEnd["wall_s"].spread() > noisySpread
	} else {
		m.spans = tr.spans
		m.PerLayer = m.perLayer(replayed)
		m.LayerSelfMs = map[string]float64{}
		for layer, ns := range layerSelfNs(tr.spans) {
			m.LayerSelfMs[layer] = float64(ns) / 1e6
		}
	}
	return m, nil
}

// repValues extracts one end-to-end metric from each repetition.
func repValues(reps []*repResult, metric string) []float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		switch metric {
		case "wall_s":
			vs[i] = r.WallS
		case "cpu_s":
			vs[i] = r.UserS + r.SysS
		case "setup_s":
			vs[i] = r.SetupS
		case "peak_rss_mb":
			vs[i] = float64(r.PeakRSSKB) / 1024
		case "alloc_mb":
			vs[i] = float64(r.AllocBytes) / (1 << 20)
		default:
			panic("perfbench: no such end-to-end metric " + metric)
		}
	}
	return vs
}

// check applies the correctness gate: every repetition passed its golden
// or invariants, and the simulated clock read the same in all of them.
func (m *measurement) check(w *workload) {
	all := append(append(append([]*repResult(nil), m.Memory...), m.Reps...), m.Traced...)
	for i, r := range all {
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		if r.Mismatch != "" {
			m.Problems = append(m.Problems, fmt.Sprintf("%s rep %d: %s", w.Name, i, r.Mismatch))
		}
		if r.Text != all[0].Text {
			m.Problems = append(m.Problems, fmt.Sprintf("%s rep %d: simulated output differs from rep 0: %s",
				w.Name, i, firstDiff(all[0].Text, r.Text)))
		}
	}
	for i, r := range m.Traced {
		for k, v := range r.Counts {
			if v != m.Traced[0].Counts[k] {
				m.Problems = append(m.Problems, fmt.Sprintf("%s traced rep %d: count %s = %v, rep 0 read %v",
					w.Name, i, k, v, m.Traced[0].Counts[k]))
			}
		}
	}
}

// perLayer assembles every per-layer metric of a traced measurement:
// replays, the traced repetitions' counts, and host accounting from the
// untraced repetitions. A metric this workload does not define stays 0.
func (m *measurement) perLayer(replayed map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for k, v := range replayed {
		out[k] = v
	}
	for k, v := range m.Traced[0].Counts {
		out[k] = v
	}
	med := func(f func(r *repResult) float64) float64 {
		vs := make([]float64, len(m.Reps))
		for i, r := range m.Reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	wall := med(func(r *repResult) float64 { return r.WallS })
	traced := make([]float64, len(m.Traced))
	for i, r := range m.Traced {
		traced[i] = r.WallS
	}
	out["obs.trace_overhead_pct"] = 100 * (median(traced)/wall - 1)
	out["goruntime.user_s"] = med(func(r *repResult) float64 { return r.UserS })
	out["goruntime.sys_s"] = med(func(r *repResult) float64 { return r.SysS })
	out["goruntime.sys_share"] = med(func(r *repResult) float64 {
		if r.UserS+r.SysS == 0 {
			return 0 // a job shorter than the rusage clock tick
		}
		return r.SysS / (r.UserS + r.SysS)
	})
	out["goruntime.gc_cycles"] = med(func(r *repResult) float64 { return float64(r.GCCycles) })
	out["goruntime.gc_pause_ms"] = med(func(r *repResult) float64 { return float64(r.GCPauseNs) / 1e6 })
	out["goruntime.mallocs"] = med(func(r *repResult) float64 { return float64(r.Mallocs) })
	if msgs := out["bench.msgs"]; msgs > 0 {
		out["bench.host_ns_per_msg"] = wall * 1e9 / msgs
	}
	out["bench.host_slowdown"] = m.HostSlowdown
	out["bench.cell_wall_ms.p50"] = med(func(r *repResult) float64 { return unitWallMs(r, 0.5) })
	out["bench.cell_wall_ms.max"] = med(func(r *repResult) float64 { return unitWallMs(r, 1) })
	return out
}

// unitWallMs is the q-quantile (nearest rank) of a repetition's unit wall
// times, in milliseconds.
func unitWallMs(r *repResult, q float64) float64 {
	ns := make([]int64, len(r.Units))
	for i, u := range r.Units {
		ns[i] = u.WallNs
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(ns[int(q*float64(len(ns)-1))]) / 1e6
}
