package main

import (
	"encoding/json"
	"math"
	"sort"
)

// runSeconds is how long one driver run measures; BENCHMARK.json records it.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the tables in this package, so
// the committed file and the code cannot drift apart unnoticed
// (`perfbench -benchmark-json` prints it; a test compares).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/perfbench/run.sh"},
		Paths:      []string{"cmd/perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// metricDef is one named metric: what BENCHMARK.json records about it plus,
// for per-layer metrics, where the number comes from and what it predicts.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: package name
	Source string  // per-layer only: "R" replay, "C" count, "H" host accounting
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd lists what a user of the simulator sees on every workload: how
// long the fixed job takes on the host clock, what it costs in CPU and
// memory, and how long a cold process needs before the first cell runs.
// Simulated-clock results are pinned exactly by the goldens and reported per
// workload under bench.sim_* (see README.md, "Departures from the issue").
//
// The three time metrics are divided by the measurement's host slowdown (see
// hostref.go), and their bounds are the widest the contract allows: on the
// 2-vCPU reference VM run medians of an unchanged binary spread 3-8 % in a
// quiet quarter hour and 13-26 % in a noisy one before that correction, so a
// 10 % bound would reject the benchmark against itself. alloc_mb does not
// drift; peak_rss_mb comes from memory repetitions of its own (see
// memoryEnv in parent.go).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "alloc_mb", Unit: "MiB", Better: "lower", Bound: 0.02},
}

// noisySpread is the wall_s quartile spread across a measurement's
// repetitions above which the measurement is marked noisy rather than
// reported as clean.
const noisySpread = 0.10

// perLayer lists the traced pass's metrics, grouped by the package they
// measure. Replays (R) time calls into a layer's public functions from
// outside; counts (C) are deterministic values read after the traced
// repetition; host accounting (H) comes from the untraced repetitions of the
// same run. A metric a workload does not define reads 0 on that workload.
var perLayer = []metricDef{
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Layer: "sim", Source: "R", Moves: "wall_s on fanin, overload-open"},
	{Name: "sim.timer_cancel_ns", Unit: "ns", Better: "lower", Layer: "sim", Source: "R", Moves: "wall_s on tcp-bulk (not chaos, where timers fire)"},
	{Name: "sim.proc_switch_ns", Unit: "ns", Better: "lower", Layer: "sim", Source: "R", Moves: "wall_s, cpu_s on rtt-small, tcp-bulk, chaos"},
	{Name: "sim.sim_ms", Unit: "sim_ms", Better: "lower", Layer: "sim", Source: "C", Moves: "explains wall_s per simulated ms on Testbed workloads"},

	{Name: "netdev.transmit_ns.2", Unit: "ns", Better: "lower", Layer: "netdev", Source: "R", Moves: "wall_s on tcp-bulk"},
	{Name: "netdev.transmit_ns.513", Unit: "ns", Better: "lower", Layer: "netdev", Source: "R", Moves: "wall_s on fanin"},
	{Name: "netdev.frames_sent", Unit: "count", Better: "lower", Layer: "netdev", Source: "C", Moves: "wall_s on rtt-small, tcp-bulk, chaos"},
	{Name: "netdev.frames_dropped", Unit: "count", Better: "lower", Layer: "netdev", Source: "C", Moves: "bench.sim_mbps on chaos"},
	{Name: "netdev.pool_leases", Unit: "count", Better: "lower", Layer: "netdev", Source: "C", Moves: "wall_s on tcp-bulk"},
	{Name: "netdev.pool_grown", Unit: "count", Better: "lower", Layer: "netdev", Source: "C", Moves: "alloc_mb everywhere"},

	{Name: "aegis.rx_path_ns", Unit: "ns", Better: "lower", Layer: "aegis", Source: "R", Moves: "wall_s on fanin"},
	{Name: "aegis.kernel_build_ns", Unit: "ns", Better: "lower", Layer: "aegis", Source: "R", Moves: "wall_s, peak_rss_mb on mega-setup, chaos"},
	{Name: "aegis.ctx_switches", Unit: "count", Better: "lower", Layer: "aegis", Source: "C", Moves: "wall_s on rtt-small, tcp-bulk"},
	{Name: "aegis.interrupts", Unit: "count", Better: "lower", Layer: "aegis", Source: "C", Moves: "bench.sim_lat_us on rtt-small"},
	{Name: "aegis.batched_interrupt_pct", Unit: "%", Better: "higher", Layer: "aegis", Source: "C", Moves: "bench.sim_cyc_per_msg on fanin"},
	{Name: "aegis.sheds", Unit: "count", Better: "lower", Layer: "aegis", Source: "C", Moves: "bench.sim_ops_failed, bench.sim_p99_us on overload-open"},
	{Name: "aegis.ring_drops", Unit: "count", Better: "lower", Layer: "aegis", Source: "C", Moves: "bench.sim_mbps on chaos"},

	{Name: "dpf.demux_ns.512", Unit: "ns", Better: "lower", Layer: "dpf", Source: "R", Moves: "wall_s on fanin"},
	{Name: "dpf.demux_ns.256k", Unit: "ns", Better: "lower", Layer: "dpf", Source: "R", Moves: "wall_s on mega-setup"},
	{Name: "dpf.insert_ns.256k", Unit: "ns", Better: "lower", Layer: "dpf", Source: "R", Moves: "wall_s, alloc_mb on mega-setup"},
	{Name: "dpf.remove_ns", Unit: "ns", Better: "lower", Layer: "dpf", Source: "R", Moves: "wall_s on mega-setup"},
	{Name: "dpf.sim_demux_cyc_per_msg", Unit: "cycles", Better: "lower", Layer: "dpf", Source: "C", Moves: "bench.sim_cyc_per_msg on fanin, mega-setup"},
	{Name: "dpf.trie_depth", Unit: "count", Better: "lower", Layer: "dpf", Source: "C", Moves: "bench.sim_cyc_per_msg on mega-setup"},

	{Name: "vcode.dispatch_ns_per_insn", Unit: "ns", Better: "lower", Layer: "vcode", Source: "R", Moves: "wall_s on rtt-small"},
	{Name: "vcode.flatmem_new_ns_per_mb", Unit: "ns", Better: "lower", Layer: "vcode", Source: "R", Moves: "wall_s, cpu_s, peak_rss_mb on mega-setup"},
	{Name: "vcode.insns_per_invocation", Unit: "insns", Better: "lower", Layer: "vcode", Source: "C", Moves: "scales vcode.dispatch_ns_per_insn to a handler run"},

	{Name: "sandbox.instrument_ns", Unit: "ns", Better: "lower", Layer: "sandbox", Source: "R", Moves: "wall_s on download-churn"},
	{Name: "sandbox.cache_hit_ns", Unit: "ns", Better: "lower", Layer: "sandbox", Source: "R", Moves: "wall_s on download-churn"},
	{Name: "sandbox.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "sandbox", Source: "C", Moves: "wall_s on download-churn"},
	{Name: "sandbox.added_insns", Unit: "insns", Better: "lower", Layer: "sandbox", Source: "C", Moves: "bench.sim_handler_insns on download-churn"},

	{Name: "core.download_ns", Unit: "ns", Better: "lower", Layer: "core", Source: "R", Moves: "wall_s on download-churn"},
	{Name: "core.reoptimize_ns", Unit: "ns", Better: "lower", Layer: "core", Source: "R", Moves: "wall_s on download-churn"},
	{Name: "core.invoke_ns", Unit: "ns", Better: "lower", Layer: "core", Source: "R", Moves: "wall_s on rtt-small"},
	{Name: "core.aborts_involuntary", Unit: "count", Better: "lower", Layer: "core", Source: "C", Moves: "bench.sim_mbps on chaos"},
	{Name: "core.abort_fallbacks", Unit: "count", Better: "lower", Layer: "core", Source: "C", Moves: "bench.sim_mbps on chaos"},
	{Name: "core.quota_throttled", Unit: "count", Better: "lower", Layer: "core", Source: "C", Moves: "bench.sim_p99_us on overload-open"},

	{Name: "mach.copy_ns_per_kb", Unit: "ns", Better: "lower", Layer: "mach", Source: "R", Moves: "wall_s on tcp-bulk"},
	{Name: "pipe.compile_ns", Unit: "ns", Better: "lower", Layer: "pipe", Source: "R", Moves: "wall_s on tcp-bulk"},
	{Name: "pipe.run_ns_per_kb", Unit: "ns", Better: "lower", Layer: "pipe", Source: "R", Moves: "wall_s on tcp-bulk"},

	{Name: "tcp.segment_ns", Unit: "ns", Better: "lower", Layer: "proto.tcp", Source: "R", Moves: "wall_s on tcp-bulk"},
	{Name: "tcp.conntable_lookup_ns", Unit: "ns", Better: "lower", Layer: "proto.tcp", Source: "R", Moves: "wall_s on fanin"},
	{Name: "tcp.retransmits", Unit: "count", Better: "lower", Layer: "proto.tcp", Source: "C", Moves: "bench.sim_mbps, wall_s on chaos"},
	{Name: "tcp.bad_cksum", Unit: "count", Better: "lower", Layer: "proto.tcp", Source: "C", Moves: "bench.sim_mbps on chaos"},
	{Name: "nfs.retries", Unit: "count", Better: "lower", Layer: "proto.nfs", Source: "C", Moves: "wall_s on chaos, mega-setup"},

	{Name: "flyweight.bytes_per_endpoint", Unit: "bytes", Better: "lower", Layer: "flyweight", Source: "C", Moves: "peak_rss_mb on mega-setup"},
	{Name: "flyweight.endpoint_build_ns", Unit: "ns", Better: "lower", Layer: "flyweight", Source: "R", Moves: "wall_s on mega-setup"},
	{Name: "relay.op_ns", Unit: "ns", Better: "lower", Layer: "relay", Source: "R", Moves: "wall_s on overload-open"},
	{Name: "relay.rejected", Unit: "count", Better: "lower", Layer: "relay", Source: "C", Moves: "bench.sim_msg_per_ms on overload-open"},
	{Name: "relay.expired", Unit: "count", Better: "lower", Layer: "relay", Source: "C", Moves: "bench.sim_msg_per_ms on overload-open"},
	{Name: "workload.gen_ns_per_event", Unit: "ns", Better: "lower", Layer: "workload", Source: "R", Moves: "wall_s on mega-setup, overload-open"},
	{Name: "fault.injected", Unit: "count", Better: "lower", Layer: "fault", Source: "C", Moves: "share of chaos traffic that leaves the fast path"},

	{Name: "obs.phase_cyc.wire", Unit: "cycles", Better: "lower", Layer: "obs", Source: "C", Moves: "decomposes bench.sim_lat_us"},
	{Name: "obs.phase_cyc.device", Unit: "cycles", Better: "lower", Layer: "obs", Source: "C", Moves: "decomposes bench.sim_lat_us"},
	{Name: "obs.phase_cyc.kernel", Unit: "cycles", Better: "lower", Layer: "obs", Source: "C", Moves: "decomposes bench.sim_lat_us"},
	{Name: "obs.phase_cyc.ash", Unit: "cycles", Better: "lower", Layer: "obs", Source: "C", Moves: "decomposes bench.sim_lat_us"},
	{Name: "obs.phase_cyc.proto", Unit: "cycles", Better: "lower", Layer: "obs", Source: "C", Moves: "decomposes bench.sim_lat_us"},
	{Name: "obs.phase_cyc.sched", Unit: "cycles", Better: "lower", Layer: "obs", Source: "C", Moves: "decomposes bench.sim_lat_us"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "obs", Source: "H", Moves: "cost of the traced pass itself"},

	{Name: "goruntime.user_s", Unit: "s", Better: "lower", Layer: "goruntime", Source: "H", Moves: "splits cpu_s"},
	{Name: "goruntime.sys_s", Unit: "s", Better: "lower", Layer: "goruntime", Source: "H", Moves: "splits cpu_s"},
	{Name: "goruntime.sys_share", Unit: "ratio", Better: "lower", Layer: "goruntime", Source: "H", Moves: "the ROADMAP sys ~ user headline on rtt-small, mega-setup"},
	{Name: "goruntime.gc_cycles", Unit: "count", Better: "lower", Layer: "goruntime", Source: "H", Moves: "cpu_s where alloc_mb is large"},
	{Name: "goruntime.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "goruntime", Source: "H", Moves: "wall_s where alloc_mb is large"},
	{Name: "goruntime.mallocs", Unit: "count", Better: "lower", Layer: "goruntime", Source: "H", Moves: "alloc_mb, cpu_s"},

	{Name: "bench.cells", Unit: "count", Better: "lower", Layer: "bench", Source: "C", Moves: "fixed by the workload definition"},
	{Name: "bench.msgs", Unit: "count", Better: "higher", Layer: "bench", Source: "C", Moves: "fixed by the workload definition"},
	{Name: "bench.host_ns_per_msg", Unit: "ns", Better: "lower", Layer: "bench", Source: "H", Moves: "wall_s / msgs: simulator cost per simulated message"},
	{Name: "bench.cell_wall_ms.p50", Unit: "ms", Better: "lower", Layer: "bench", Source: "H", Moves: "wall_s"},
	{Name: "bench.cell_wall_ms.max", Unit: "ms", Better: "lower", Layer: "bench", Source: "H", Moves: "wall_s"},
	{Name: "bench.host_slowdown", Unit: "ratio", Better: "lower", Layer: "bench", Source: "H", Moves: "the host, not the program: what the time metrics are divided by"},
	{Name: "bench.sim_lat_us", Unit: "sim_us", Better: "lower", Layer: "bench", Source: "C", Moves: "simulated result, pinned by the golden"},
	{Name: "bench.sim_p99_us", Unit: "sim_us", Better: "lower", Layer: "bench", Source: "C", Moves: "simulated result, pinned by the golden"},
	{Name: "bench.sim_mbps", Unit: "sim_MB/s", Better: "higher", Layer: "bench", Source: "C", Moves: "simulated result, pinned by the golden"},
	{Name: "bench.sim_msg_per_ms", Unit: "msg/sim_ms", Better: "higher", Layer: "bench", Source: "C", Moves: "simulated result, pinned by the golden"},
	{Name: "bench.sim_cyc_per_msg", Unit: "cycles", Better: "lower", Layer: "bench", Source: "C", Moves: "simulated result, pinned by the golden"},
	{Name: "bench.sim_handler_insns", Unit: "insns", Better: "lower", Layer: "bench", Source: "C", Moves: "simulated result, pinned by the golden"},
	{Name: "bench.sim_ops_failed", Unit: "count", Better: "lower", Layer: "bench", Source: "C", Moves: "retry budgets exhausted under deliberate overload, pinned by the golden"},
}

// exact reports whether two runs of one commit must agree bit for bit on
// this per-layer metric.
func (m metricDef) exact() bool { return m.Source == "C" }

// quartiles holds a sample's median and quartiles as
// statistics.quantiles(values, n=4) computes them (exclusive method), which
// is what the driver applies to a metric's runs.
type quartiles struct {
	N           int
	Q1, Med, Q3 float64
}

// spread is the interquartile distance as a share of the median.
func (q quartiles) spread() float64 {
	if q.Med == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / math.Abs(q.Med)
}

func summarize(vs []float64) quartiles {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return quartiles{}
	case 1:
		return quartiles{N: 1, Q1: s[0], Med: s[0], Q3: s[0]}
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return quartiles{N: n, Q1: at(0.25), Med: at(0.5), Q3: at(0.75)}
}

func median(vs []float64) float64 { return summarize(vs).Med }
