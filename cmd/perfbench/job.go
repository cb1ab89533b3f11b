package main

import (
	"embed"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ashs/internal/bench"
	"ashs/internal/obs"
)

//go:embed testdata/golden/*.txt
var goldens embed.FS

func goldenPath(workload string) string { return "testdata/golden/" + workload + ".txt" }

// jobOpts selects one repetition.
type jobOpts struct {
	Workload string
	Seed     int64
	Smoke    bool // tiny sizes for the tests; no golden applies
	Ungated  bool // -update-golden: produce the text, compare nothing
	Traced   bool
	// Memory marks a repetition run for its resident-set peak alone (see
	// memoryEnv); only the parent reads it.
	Memory bool
	// Spawned is when the parent started this process; zero means the
	// job runs in-process and set-up is measured from the call instead.
	Spawned time.Time
	// Epoch is the origin of span timestamps, shared with the parent.
	Epoch time.Time
}

// ashbenchOutput is the committed suite output, relative to the repository
// root: rows a workload produces at the suite's own sizing must appear in it.
const ashbenchOutput = "ashbench_output.txt"

// unitTiming is the wall time of one timed unit: a registry cell or one
// bench.Run* call.
type unitTiming struct {
	Label  string `json:"label"`
	WallNs int64  `json:"wall_ns"`
}

// repResult is one repetition as the child reports it.
type repResult struct {
	SetupS float64 `json:"setup_s"` // process start to first timed cell
	WallS  float64 `json:"wall_s"`  // first cell start to last cell end
	// Ref holds the host-speed reference timed just before and just after
	// the job (see hostref.go); empty for in-process repetitions.
	Ref []refSample `json:"ref,omitempty"`

	AllocBytes uint64 `json:"alloc_bytes"` // MemStats.TotalAlloc over the job
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`

	Units     []unitTiming       `json:"units"`
	Text      string             `json:"text"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Counts    map[string]float64 `json:"counts"`
	// Mismatch is empty when the simulated output passed its gate, else
	// the first difference found.
	Mismatch string `json:"mismatch,omitempty"`
	Spans    []span `json:"spans,omitempty"`

	// PeakRSSKB is VmHWM of this process at the end of the job; peak_rss_mb
	// reads it from the memory repetitions only. It is not ru_maxrss: Go
	// starts children with a vfork-style clone, and exec folds the parent's
	// peak into the child's ru_maxrss, so a parent that has grown (the
	// traced pass holds a 262144-filter trie) would set a floor under every
	// child's figure.
	PeakRSSKB int64 `json:"peak_rss_kb"`

	// UserS and SysS are this process's CPU time over the timed job.
	UserS float64 `json:"user_s"`
	SysS  float64 `json:"sys_s"`
}

// jobEnv is what a workload's prepare and job functions see.
type jobEnv struct {
	cfg   *bench.Config
	seed  int64
	smoke bool
	tr    *tracer
	units []unitTiming
	// testbeds are the worlds the current unit of a traced repetition has
	// built. Their counters are folded into tbCounts when the unit ends
	// and the worlds are let go: a world kept alive holds 16 MiB of
	// simulated memory and changes the collector's pacing. Untraced
	// repetitions keep none at all.
	testbeds          []*bench.Testbed
	tbCounts          map[string]float64
	tbIntr, tbBatched uint64
}

// timed runs one unit of the job inside a cell span and records its wall
// time.
func (e *jobEnv) timed(label string, fn func()) {
	id := e.tr.begin("bench", "cell:"+label)
	start := time.Now()
	fn()
	e.units = append(e.units, unitTiming{Label: label, WallNs: time.Since(start).Nanoseconds()})
	e.tr.end(id)
	e.harvest()
}

// runJob runs one repetition of a workload in this process.
func runJob(o jobOpts) (*repResult, error) {
	began := o.Spawned
	if began.IsZero() {
		began = time.Now()
	}
	w, err := findWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	e := &jobEnv{
		cfg:   &bench.Config{Parallel: 1, Quick: o.Smoke},
		seed:  o.Seed,
		smoke: o.Smoke,
	}
	if o.Traced {
		e.tr = newTracer(o.Epoch, w.Name)
		e.cfg.Obs = func(tb *bench.Testbed) *obs.Plane {
			e.testbeds = append(e.testbeds, tb)
			return obs.New(float64(tb.Prof.MHz))
		}
	}
	job, err := w.prepare(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	var golden []byte
	gated := !o.Smoke && !o.Ungated && (o.Seed == 1 || !w.SeedDependent)
	if gated {
		if golden, err = goldens.ReadFile(goldenPath(w.Name)); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}

	ready := time.Now() // set-up ends here
	var ref []refSample
	if !o.Spawned.IsZero() {
		ref = append(ref, hostRef())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	user0, sys0 := cpuTime()
	rep := e.tr.begin("bench", "rep")
	start := time.Now()
	jr := job()
	wall := time.Since(start)
	e.tr.end(rep)
	user1, sys1 := cpuTime()
	runtime.ReadMemStats(&after)
	peak := peakRSSKB()
	if !o.Spawned.IsZero() {
		ref = append(ref, hostRef())
	}

	res := &repResult{
		SetupS:     ready.Sub(began).Seconds(),
		Ref:        ref,
		WallS:      wall.Seconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		GCCycles:   after.NumGC - before.NumGC,
		GCPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
		Units:      e.units,
		Text:       jr.Text,
		Attempted:  jr.Attempted,
		Failed:     jr.Failed,
		Counts:     jr.Counts,
		PeakRSSKB:  peak,
		UserS:      (user1 - user0).Seconds(),
		SysS:       (sys1 - sys0).Seconds(),
	}
	res.Counts["bench.cells"] = float64(len(e.units))
	res.Counts["bench.msgs"] = float64(jr.Msgs)
	if o.Traced {
		e.testbedCounts(res.Counts)
		res.Spans = e.tr.spans
	}
	if gated {
		res.Mismatch = firstDiff(string(golden), jr.Text)
		if res.Mismatch == "" && len(jr.Rows) > 0 {
			res.Mismatch = missingRow(ashbenchOutput, jr.Rows)
		}
	}
	if res.Mismatch != "" {
		// A wrong output means none of the repetition's work counts.
		res.Failed = res.Attempted
	}
	return res, nil
}

// harvest reads the counters of every two-host world the finished unit
// built, then drops the worlds.
func (e *jobEnv) harvest() {
	if len(e.testbeds) == 0 {
		return
	}
	if e.tbCounts == nil {
		e.tbCounts = map[string]float64{}
	}
	c := e.tbCounts
	for _, tb := range e.testbeds {
		now := tb.Eng.Now()
		c["sim.sim_ms"] += tb.Us(now) / 1000
		c["netdev.frames_sent"] += float64(tb.Sw.Sent)
		c["netdev.frames_dropped"] += float64(tb.Sw.Dropped)
		c["netdev.pool_leases"] += float64(tb.Sw.Pool.Leases)
		c["netdev.pool_grown"] += float64(tb.Sw.Pool.Grown)
		c["aegis.ctx_switches"] += float64(tb.K1.CtxSwitches + tb.K2.CtxSwitches)
		e.tbIntr += tb.K1.Interrupts + tb.K2.Interrupts
		e.tbBatched += tb.K1.BatchedInterrupts + tb.K2.BatchedInterrupts
		c["core.aborts_involuntary"] += float64(tb.Sys1.InvoluntaryAborts + tb.Sys2.InvoluntaryAborts)
		c["core.abort_fallbacks"] += float64(tb.Sys1.AbortFallbacks + tb.Sys2.AbortFallbacks)
		c["core.quota_throttled"] += float64(tb.Sys1.QuotaThrottled + tb.Sys2.QuotaThrottled)
		if o := tb.Obs; o != nil {
			phases := o.PhaseCycles(0, now+1)
			for _, ph := range []string{"wire", "device", "kernel", "ash", "proto", "sched"} {
				c["obs.phase_cyc."+ph] += float64(phases[ph])
			}
			c["tcp.retransmits"] += float64(o.Metrics.Counter("tcp/retransmits").Value())
			c["nfs.retries"] += float64(o.Metrics.Counter("nfs/retries").Value())
		}
	}
	e.testbeds = nil
}

// testbedCounts adds what harvest collected to a repetition's counts. Values
// the workload's typed results already supplied win: they cover worlds
// (scale, megascale, overload) that bypass Config.Obs.
func (e *jobEnv) testbedCounts(counts map[string]float64) {
	if e.tbCounts == nil {
		return
	}
	c := e.tbCounts
	c["aegis.interrupts"] = float64(e.tbIntr)
	if total := e.tbIntr + e.tbBatched; total > 0 {
		c["aegis.batched_interrupt_pct"] = 100 * float64(e.tbBatched) / float64(total)
	}
	for k, v := range c {
		if _, ok := counts[k]; !ok {
			counts[k] = v
		}
	}
}

// cpuTime reads this process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSKB reads this process's resident-set high-water mark, or 0 where
// /proc does not say.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

// firstDiff reports the first line at which got departs from want, or "".
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("golden line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "golden differs"
}

// missingRow reports the first row absent from the committed suite output.
func missingRow(path string, rows []string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	have := map[string]bool{}
	for _, l := range strings.Split(string(data), "\n") {
		have[l] = true
	}
	for _, r := range rows {
		if !have[r] {
			return fmt.Sprintf("row not in %s: %q", path, r)
		}
	}
	return ""
}

// span is one traced interval. Parent 0 is the root; ids are positive.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing. Spans nest by
// call order, so the open-span stack names each new span's parent.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int // indices into spans
}

func newTracer(epoch time.Time, workload string) *tracer {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	return &tracer{epoch: epoch, workload: workload}
}

func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload,
		Layer: layer, Name: name, StartNs: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id-1)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// renumber appends spans numbered from 1 to dst, moving their ids past the
// ones dst already uses and hanging their roots under root.
func renumber(dst, spans []span, root int) []span {
	base := len(dst)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = root
		} else {
			s.Parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// adopt appends spans recorded by a child process under the currently open
// span.
func (t *tracer) adopt(child []span) {
	root := 0
	if n := len(t.open); n > 0 {
		root = t.spans[t.open[n-1]].ID
	}
	t.spans = renumber(t.spans, child, root)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover, keyed by span id.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := map[int]int64{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelfNs sums self time by layer.
func layerSelfNs(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}
