package main

import (
	"fmt"
	"math"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/bench"
	"ashs/internal/bench/hotpath"
	"ashs/internal/core"
	"ashs/internal/fault"
	"ashs/internal/mach"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// workload is one fixed job. prepare does everything a cold process must do
// before the first timed cell (registry enumeration, seeded input
// generation) and returns the job itself; a label the registry no longer
// has is an error, never a silently smaller job.
type workload struct {
	Name string
	Loop string // closed or open, with the client count or rate
	Why  string // one line: BENCHMARK.json records it
	// SeedDependent marks the one workload whose simulated output moves
	// with -seed, so only seed 1 has a golden.
	SeedDependent bool
	prepare       func(e *jobEnv) (func() jobResult, error)
}

// jobResult is what one repetition of a workload produced on the simulated
// clock. Everything in it is deterministic: two repetitions of one commit
// at one seed must agree field for field.
type jobResult struct {
	// Text is the rendered simulated output, compared with the golden.
	Text string
	// Rows are lines ashbench prints at its default sizing; each must
	// appear verbatim in ashbench_output.txt.
	Rows []string
	// Msgs is the number of simulated application messages completed.
	Msgs uint64
	// Attempted and Failed count operations whose outcome was checked. A
	// retry budget exhausted under deliberate overload is a correct,
	// golden-pinned outcome and is reported as bench.sim_ops_failed.
	Attempted, Failed int
	// Counts holds the bench.sim_* values this workload defines and the
	// source-C per-layer counts read from its typed results.
	Counts map[string]float64
}

// addPass records the rendered output of one pass over a deterministic
// job: the first pass is the text, and a later pass that renders differently
// is appended so that the golden comparison fails and shows it.
func (r *jobResult) addPass(pass int, text string) {
	if pass == 0 {
		r.Text = text
	} else if text != r.Text {
		r.Text += fmt.Sprintf("pass %d differs from pass 0:\n%s", pass, text)
	}
}

var workloads = []workload{
	{
		Name: "rtt-small", Loop: "closed, 1 client",
		Why:     "per-message fixed cost with no data touching: proc handoff, syscall/ctx-switch/upcall, handler dispatch; coroutine procs must show here, reusable worlds must not",
		prepare: prepRTTSmall,
	},
	{
		Name: "tcp-bulk", Loop: "closed, flow-controlled",
		Why:     "per-byte cost: tcp input/output, cache model, checksum passes, buffer leases, one timer armed and cancelled per segment; the large-message counterpart of rtt-small",
		prepare: prepTCPBulk,
	},
	{
		Name: "fanin", Loop: "closed, up to 512 clients",
		Why:     "DPF lookup against hundreds of filters, rings and batched interrupts, a 513-port switch, a deep event queue; the batched packet path and demux work show here",
		prepare: prepFanin,
	},
	{
		Name: "mega-setup", Loop: "open, Poisson + incast, fixed trace",
		Why:     "set-up and memory dominated: world build, memory zeroing, 262144 DPF inserts, flyweight endpoints; a lookup win bought with slower inserts or fatter nodes shows as a loss here",
		prepare: prepMegaSetup,
	},
	{
		Name: "chaos", Loop: "closed", SeedDependent: true,
		Why:     "share of traffic that leaves the fast path: retransmit timers firing, abort rollback and re-vectoring, reassembly timeouts, plus 27 world builds; the only workload whose inputs move with the seed",
		prepare: prepChaos,
	},
	{
		Name: "overload-open", Loop: "open, 1x-4x measured saturation",
		Why:     "the open-loop workload with latency from scheduled arrival: admission shedding, quota to lazy drain, relay caps, jittered retry; a throughput win that lengthens queues shows as p99 here",
		prepare: prepOverloadOpen,
	},
	{
		Name: "download-churn", Loop: "closed",
		Why:     "the control plane: verify, instrument, compile, reoptimize, with compile-cache misses and hits; a dispatch win that costs download time (or the reverse) shows here",
		prepare: prepDownloadChurn,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// pickCells resolves cells of one registered experiment by label. With no
// labels it selects the whole experiment, whose results Experiment.Render
// can then format. Every requested label must exist.
func pickCells(cfg *bench.Config, exp string, labels ...string) (*bench.Experiment, []bench.Cell, error) {
	found, unknown := bench.FindExperiments([]string{exp})
	if len(unknown) > 0 || len(found) != 1 {
		return nil, nil, fmt.Errorf("experiment %q is not in the registry", exp)
	}
	all := found[0].Cells(cfg)
	if len(labels) == 0 {
		return found[0], all, nil
	}
	byLabel := map[string]bench.Cell{}
	for _, c := range all {
		byLabel[c.Label] = c
	}
	var picked []bench.Cell
	var missing []string
	for _, l := range labels {
		c, ok := byLabel[l]
		if !ok {
			missing = append(missing, l)
			continue
		}
		picked = append(picked, c)
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("experiment %q has no cell labelled %s", exp, strings.Join(missing, ", "))
	}
	return found[0], picked, nil
}

// runCells runs each cell as one timed unit and returns the results in
// order.
func (e *jobEnv) runCells(cells []bench.Cell) []any {
	out := make([]any, len(cells))
	for i, c := range cells {
		c := c
		e.timed(c.Label, func() { out[i] = c.Run(e.cfg) })
	}
	return out
}

// dumpCells renders partially selected cells, which Experiment.Render
// cannot format, one "label: value" line each. %v prints floats with the
// digits that round-trip, so the golden pins every bit.
func dumpCells(cells []bench.Cell, vs []any) string {
	var b strings.Builder
	for i, c := range cells {
		fmt.Fprintf(&b, "%s: %+v\n", c.Label, vs[i])
	}
	return b.String()
}

// lines splits rendered text into the rows checked against
// ashbench_output.txt.
func lines(text string) []string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// countBad counts values that are not positive finite numbers: a latency
// or throughput row that reads so means its cell did not measure anything.
func countBad(vs ...float64) (bad int) {
	for _, v := range vs {
		if !(v > 0) || math.IsInf(v, 0) {
			bad++
		}
	}
	return bad
}

func mean(vs ...float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func geomean(vs ...float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// rtt-small: Table I and Table V at a raised iteration count — thirteen
// two-host worlds ping-ponging messages of at most 40 bytes.
func prepRTTSmall(e *jobEnv) (func() jobResult, error) {
	iters := 20_000
	if e.smoke {
		iters = 20
	}
	return func() jobResult {
		var t1 bench.Table1
		var t5 bench.Table5
		e.timed("table1", func() { t1 = bench.RunTable1(e.cfg, iters) })
		e.timed("table5", func() { t5 = bench.RunTable5(e.cfg, iters) })
		rows := append([]float64{t1.InKernelAN2, t1.UserAN2, t1.Ethernet}, t5.Polling[:]...)
		rows = append(rows, t5.Suspended[:]...)
		return jobResult{
			Text:      t1.Table().Render() + t5.Table().Render(),
			Msgs:      uint64(len(rows) * iters),
			Attempted: len(rows) * iters,
			Failed:    countBad(rows...) * iters,
			Counts:    map[string]float64{"bench.sim_lat_us": t1.UserAN2},
		}
	}, nil
}

// tcp-bulk: Table VI with 4-MB streams (the suite's 10 MB shortened to fit
// the run budget) plus Table II's five TCP throughput cells at the suite's
// own sizing.
func prepTCPBulk(e *jobEnv) (func() jobResult, error) {
	p := bench.Table6Params{LatIters: 10, TCPBytes: 4 << 20}
	if e.smoke {
		p.TCPBytes = 64 << 10
	}
	var labels []string
	for _, row := range []string{
		"AN2; in place, no checksum", "AN2; in place, with checksum",
		"AN2; no checksum", "AN2; with checksum", "Ethernet; with checksum",
	} {
		labels = append(labels, "table2/"+row+"/tcp-tput")
	}
	_, cells, err := pickCells(e.cfg, "table2", labels...)
	if err != nil {
		return nil, err
	}
	t2 := bench.DefaultTable2Params()
	if e.smoke {
		t2.TCPBytes = 2 << 20 // what Config.Quick selects
	}
	return func() jobResult {
		var t6 bench.Table6
		e.timed("table6", func() { t6 = bench.RunTable6(e.cfg, p) })
		vs := e.runCells(cells)
		tputs := append(append([]float64(nil), t6.Tput[:]...), t6.TputSmall[:]...)
		all := append(append([]float64(nil), tputs...), t6.Latency[:]...)
		for _, v := range vs {
			all = append(all, v.(float64))
		}
		// One operation per application write: 8-KB writes, 4-KB on the
		// small-MSS rows, and one per latency ping-pong.
		writes := 5*(p.TCPBytes/8192+p.TCPBytes/2/4096+p.LatIters) +
			4*(t2.TCPBytes/8192) + t2.TCPBytes/4/8192
		return jobResult{
			Text:      t6.Table().Render() + dumpCells(cells, vs),
			Msgs:      uint64(writes),
			Attempted: writes,
			Failed:    countBad(all...) * writes / len(all),
			Counts: map[string]float64{
				"bench.sim_lat_us": mean(t6.Latency[:]...),
				"bench.sim_mbps":   geomean(tputs...),
			},
		}
	}, nil
}

// fanin: every scale cell, one pass.
func prepFanin(e *jobEnv) (func() jobResult, error) {
	top, perClient := 512, 8 // perClient: the suite's messages per client
	var labels []string      // empty selects the whole experiment
	if e.smoke {
		top, perClient = 16, 4 // what Config.Quick selects
		for _, wl := range []string{"udp-ash", "tcp-fast", "nfs-read"} {
			for _, n := range []int{1, 4, 16} {
				labels = append(labels, fmt.Sprintf("scale/%s/N=%d", wl, n))
			}
		}
	}
	exp, cells, err := pickCells(e.cfg, "scale", labels...)
	if err != nil {
		return nil, err
	}
	return func() jobResult {
		vs := e.runCells(cells)
		r := jobResult{Counts: map[string]float64{}}
		if len(labels) == 0 {
			r.Text = exp.Render(e.cfg, vs)
			r.Rows = lines(r.Text)
		} else {
			r.Text = dumpCells(cells, vs)
		}
		var lat []float64
		for _, v := range vs {
			s := v.(bench.ScaleResult)
			r.Msgs += s.Msgs
			r.Attempted += s.N * perClient
			if s.N != top {
				continue
			}
			lat = append(lat, s.MeanUs)
			r.Counts["bench.sim_p99_us"] = math.Max(r.Counts["bench.sim_p99_us"], s.P99Us)
			if s.Workload == "udp-ash" {
				r.Counts["bench.sim_msg_per_ms"] = s.ThrMsgMs
				r.Counts["bench.sim_cyc_per_msg"] = s.CycPerMsg
				r.Counts["dpf.sim_demux_cyc_per_msg"] = s.DemuxPerMsg
				r.Counts["aegis.batched_interrupt_pct"] = s.BatchedPct
			}
		}
		r.Counts["bench.sim_lat_us"] = mean(lat...)
		r.Failed = r.Attempted - int(r.Msgs)
		return r
	}, nil
}

// megaRow is the line renderMegascale prints for one cell, so a cell
// selected on its own can still be checked against ashbench_output.txt.
func megaRow(r bench.MegaResult) string {
	row := fmt.Sprintf("    %8d  %8d  %5d  %6d  %9.1f  %8.1f  %5d  %8.1f  %11.1f  %7d  %5d",
		r.N, r.Filters, r.TrieDepth, r.Msgs, r.DemuxPerMsg, r.CycPerMsg,
		r.BytesPerEp, r.P99Us, r.IncastP99Us, r.Retries, r.Failures)
	if r.Workload == "nfs-read" {
		row += fmt.Sprintf("  %6d", r.Sheds)
	}
	return row
}

// mega-setup: the 262144-endpoint echo cell and the 65536-endpoint NFS
// incast cell. The suite's 10^6 cell (4.5 s, 1.1 GB) does not fit five
// repetitions in a run; its simulated row is identical to the 262144 one.
func prepMegaSetup(e *jobEnv) (func() jobResult, error) {
	labels := []string{"megascale/udp-echo/N=262144", "megascale/nfs-read/N=65536"}
	if e.smoke {
		labels = []string{"megascale/udp-echo/N=1024", "megascale/nfs-read/N=1024"}
	}
	_, cells, err := pickCells(e.cfg, "megascale", labels...)
	if err != nil {
		return nil, err
	}
	return func() jobResult {
		vs := e.runCells(cells)
		r := jobResult{Text: dumpCells(cells, vs), Counts: map[string]float64{}}
		for i, v := range vs {
			m := v.(bench.MegaResult)
			if !e.smoke {
				r.Rows = append(r.Rows, megaRow(m))
			}
			r.Msgs += m.Msgs
			r.Attempted += int(m.Msgs + m.Failures)
			r.Failed += int(m.Failures)
			r.Counts["aegis.sheds"] += float64(m.Sheds)
			r.Counts["nfs.retries"] += float64(m.Retries)
			if i == 0 {
				r.Counts["bench.sim_p99_us"] = m.P99Us
				r.Counts["bench.sim_cyc_per_msg"] = m.CycPerMsg
				r.Counts["dpf.sim_demux_cyc_per_msg"] = m.DemuxPerMsg
				r.Counts["dpf.trie_depth"] = float64(m.TrieDepth)
				r.Counts["flyweight.bytes_per_endpoint"] = float64(m.BytesPerEp)
			}
		}
		return r
	}, nil
}

// chaos: nine fault schedules under seeds {S, S+1, S+2}, 2-MB TCP streams
// (the suite's 10 MB shortened) and the suite's 64-KB NFS file.
func prepChaos(e *jobEnv) (func() jobResult, error) {
	p := bench.ChaosParams{
		Seeds:     []int64{e.seed, e.seed + 1, e.seed + 2},
		TCPBytes:  2 << 20,
		NFSBytes:  64 << 10,
		Schedules: fault.Canned(),
	}
	if e.smoke {
		p.Seeds = p.Seeds[:1]
		p.TCPBytes, p.NFSBytes = 256<<10, 16<<10
		p.Schedules = []fault.Schedule{p.Schedules[1], p.Schedules[len(p.Schedules)-1]} // loss, everything
	}
	return func() jobResult {
		var rs []bench.ChaosResult
		e.timed("chaos", func() { rs = bench.RunChaos(e.cfg, p) })
		r := jobResult{Text: bench.RenderChaos(rs), Counts: map[string]float64{}}
		// One operation per 8-KB TCP write and per 4-KB NFS write and read.
		ops := p.TCPBytes/8192 + 2*(p.NFSBytes/4096)
		var mbps []float64
		for _, c := range rs {
			r.Attempted += ops
			if !c.TCPOk || !c.NFSOk {
				r.Failed += ops
			}
			mbps = append(mbps, c.TCPMBps)
			f := c.Faults
			r.Counts["fault.injected"] += float64(f.WireDrops + f.WireCorruptions + f.WireSneaks +
				f.WireDups + f.WireReorders + f.WireDelays + f.DeviceRingDrops +
				f.DevicePoolDrops + f.DeviceTruncations + f.AbortBudget + f.AbortTimer)
			r.Counts["aegis.ring_drops"] += float64(c.InjectedDevDrops)
			r.Counts["aegis.sheds"] += float64(c.LoadDevDrops)
			r.Counts["core.aborts_involuntary"] += float64(c.InvoluntaryAborts)
			r.Counts["core.abort_fallbacks"] += float64(c.AbortFallbacks)
			r.Counts["tcp.retransmits"] += float64(c.Retransmits)
			r.Counts["tcp.bad_cksum"] += float64(c.BadChecksum)
			r.Counts["nfs.retries"] += float64(c.NFSResent)
		}
		r.Msgs = uint64(r.Attempted - r.Failed)
		r.Counts["bench.sim_mbps"] = mean(mbps...)
		return r
	}, nil
}

// overload-open: the 18-cell trace x fault-schedule matrix, three passes.
// Passes repeat one deterministic job, so every pass must render the same.
func prepOverloadOpen(e *jobEnv) (func() jobResult, error) {
	passes := 3
	if e.smoke {
		passes = 1
	}
	exp, cells, err := pickCells(e.cfg, "overload")
	if err != nil {
		return nil, err
	}
	return func() jobResult {
		r := jobResult{Counts: map[string]float64{}}
		for pass := 0; pass < passes; pass++ {
			vs := e.runCells(cells)
			r.addPass(pass, exp.Render(e.cfg, vs))
			for _, v := range vs {
				o := v.(bench.OverloadResult)
				r.Msgs += o.Completed
				r.Attempted += o.Offered
				if o.Completed+o.Failed != uint64(o.Offered) {
					r.Failed += o.Offered // an arrival with no fate
				}
				if pass > 0 {
					continue
				}
				r.Counts["bench.sim_ops_failed"] += float64(o.Failed)
				r.Counts["aegis.sheds"] += float64(o.Sheds)
				r.Counts["aegis.ring_drops"] += float64(o.PoolDrops + o.InjectedDrops)
				r.Counts["core.quota_throttled"] += float64(o.QuotaThrottled)
				r.Counts["relay.rejected"] += float64(o.RelayRejected)
				r.Counts["relay.expired"] += float64(o.RelayExpired)
				switch o.Trace + "/" + o.Sched {
				case "pois-1x/baseline":
					r.Counts["bench.sim_lat_us"] = o.MeanUs
				case "pois-2x/baseline":
					r.Counts["bench.sim_p99_us"] = o.P99Us
					r.Counts["bench.sim_msg_per_ms"] = o.GoodputMsgMs
				}
			}
		}
		if !e.smoke {
			r.Rows = lines(r.Text)
		}
		return r
	}, nil
}

// churnPool builds n distinct handler programs from the seed: the same
// checksum-loop body with a different immediate each, so every one has its
// own compile-cache key.
func churnPool(seed int64, n int) []*vcode.Program {
	base := int32(sim.NewRand(seed).Uint32() >> 8)
	pool := make([]*vcode.Program, n)
	for i := range pool {
		pool[i] = hotpath.NewHandlerProgram(base + int32(i))
	}
	return pool
}

// download-churn: the sandbox, ablation, reopt and lint cells several times
// over, then a seeded pool of distinct handlers downloaded once (the
// compile cache flushes at 256 entries, so every download misses) and a
// 128-handler subset downloaded repeatedly (every download after the first
// pass hits).
func prepDownloadChurn(e *jobEnv) (func() jobResult, error) {
	passes, poolN, subsetN, subsetPasses := 12, 16384, 128, 64
	if e.smoke {
		passes, poolN, subsetN, subsetPasses = 1, 64, 16, 2
	}
	type picked struct {
		exp   *bench.Experiment
		cells []bench.Cell
	}
	var exps []picked
	for _, name := range []string{"ablation", "reopt", "lint"} {
		exp, cells, err := pickCells(e.cfg, name)
		if err != nil {
			return nil, err
		}
		exps = append(exps, picked{exp, cells})
	}
	pool := churnPool(e.seed, poolN)
	return func() jobResult {
		// A repetition is a fresh process with a cold compile cache; say
		// so, for the callers that run several jobs in one process.
		sandbox.ResetCache()
		r := jobResult{Counts: map[string]float64{}}
		for pass := 0; pass < passes; pass++ {
			// The sandbox cells return an unexported type, so that
			// experiment runs through its exported entry point.
			var sb bench.SandboxResult
			e.timed("sandbox", func() { sb = bench.RunSandbox(e.cfg) })
			text := sb.Table().Render()
			r.Attempted++
			r.Counts["bench.sim_handler_insns"] = float64(sb.RecordOptInsns)
			r.Counts["sandbox.added_insns"] = float64(sb.AddedBySandbox)
			for _, p := range exps {
				vs := e.runCells(p.cells)
				text += p.exp.Render(e.cfg, vs)
				r.Attempted += len(vs)
			}
			r.addPass(pass, text)
		}
		if !e.smoke {
			r.Rows = lines(r.Text)
		}

		k := aegis.NewKernel("churn", sim.NewEngine(), mach.DS5000_240())
		sys := core.NewSystem(k)
		owner := k.Spawn("app", func(p *aegis.Process) {})
		hits0, misses0 := sandbox.CacheStats()
		download := func(label string, progs []*vcode.Program, times int) {
			e.timed(label, func() {
				for t := 0; t < times; t++ {
					for _, prog := range progs {
						r.Attempted++
						if _, err := sys.Download(owner, prog, core.Options{}); err != nil {
							r.Failed++
						}
					}
				}
			})
		}
		download("download/pool", pool, 1)
		download("download/subset", pool[:subsetN], subsetPasses)
		hits, misses := sandbox.CacheStats()
		hits, misses = hits-hits0, misses-misses0
		r.Text += fmt.Sprintf("downloads: %d attempted, %d failed, compile cache %d hits, %d misses\n",
			poolN+subsetN*subsetPasses, r.Failed, hits, misses)
		r.Counts["sandbox.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		r.Msgs = uint64(r.Attempted - r.Failed)
		return r
	}, nil
}
