package bench

import (
	"ashs/internal/aegis"
	"ashs/internal/proto/tcp"
)

// Table6 is the end-to-end TCP comparison of handler placements
// (Section V-B, Table VI): latency and throughput for TCP on the AN2 with
// the common-case fast path in a sandboxed ASH, an unsafe ASH, an upcall,
// or the user-level library (interrupt-driven and polling).
type Table6 struct {
	// Indexed: 0 sandboxed ASH, 1 unsafe ASH, 2 upcall, 3 user-level
	// (interrupt), 4 user-level (polling).
	Latency   [5]float64 // us
	Tput      [5]float64 // MB/s, MSS 3072, 8-KB writes
	TputSmall [5]float64 // MB/s, MSS 536, 4-KB writes
}

// PaperTable6 is Table VI of the paper.
var PaperTable6 = Table6{
	Latency:   [5]float64{394, 348, 382, 459, 384},
	Tput:      [5]float64{4.32, 4.53, 4.27, 3.92, 4.11},
	TputSmall: [5]float64{2.66, 3.05, 2.78, 2.32, 2.56},
}

// Table6Labels name the columns.
var Table6Labels = [5]string{
	"sandboxed ASH", "unsafe ASH", "upcall", "user (interrupt)", "user (polling)",
}

// Table6Params sizes the workloads.
type Table6Params struct {
	LatIters int
	TCPBytes int
}

// DefaultTable6Params mirrors the paper (10 MB streams).
func DefaultTable6Params() Table6Params {
	return Table6Params{LatIters: 10, TCPBytes: 10 << 20}
}

type table6Mode struct {
	mode      tcp.Mode
	polling   bool
	suspended bool // competitor + boost scheduler on both hosts
}

var table6Modes = [5]table6Mode{
	{tcp.ModeASH, true, false},
	{tcp.ModeASHUnsafe, true, false},
	{tcp.ModeUpcall, true, false},
	{tcp.ModeUser, false, true},
	{tcp.ModeUser, true, false},
}

// table6Cells enumerates one cell per (mode, measurement): 15 independent
// TCP worlds.
func table6Cells(p Table6Params) []Cell {
	var cells []Cell
	for i, m := range table6Modes {
		label := "table6/" + Table6Labels[i]
		cells = append(cells,
			pairCell(label+"/latency", an2Pair, func(tb *Testbed) any {
				return table6Latency(tb, m, p.LatIters)
			}),
			pairCell(label+"/tput", an2Pair, func(tb *Testbed) any {
				return table6Tput(tb, m, p.TCPBytes, 3072, 8192)
			}),
			pairCell(label+"/tput-small", an2Pair, func(tb *Testbed) any {
				return table6Tput(tb, m, p.TCPBytes/2, 536, 4096)
			}),
		)
	}
	return cells
}

func mergeTable6(vs []any) Table6 {
	var t Table6
	for i := range table6Modes {
		t.Latency[i] = vs[3*i].(float64)
		t.Tput[i] = vs[3*i+1].(float64)
		t.TputSmall[i] = vs[3*i+2].(float64)
	}
	return t
}

// RunTable6 regenerates Table VI.
func RunTable6(cfg *Config, p Table6Params) Table6 {
	return mergeTable6(cellResults(cfg, table6Cells(p)))
}

// compete gives a suspended mode's hosts the boost scheduler and one
// compute-bound competitor each, before the connection's processes spawn.
func (m table6Mode) compete(tb *Testbed) {
	if m.suspended {
		tb.K1.Sched = aegis.NewPriorityBoost(tb.K1)
		tb.K2.Sched = aegis.NewPriorityBoost(tb.K2)
		tb.K1.Spawn("competitor1", func(p *aegis.Process) { p.SpinForever() })
		tb.K2.Spawn("competitor2", func(p *aegis.Process) { p.SpinForever() })
	}
}

// cfgFor is the mode's connection config for either end of tb's pair.
func (m table6Mode) cfgFor(tb *Testbed, mss int) func(host int) tcp.Config {
	return func(host int) tcp.Config {
		cfg := tcp.DefaultConfig()
		cfg.Mode = m.mode
		cfg.Polling = m.polling
		cfg.Checksum = true
		cfg.MSS = mss
		cfg.Sys = tb.hosts[host-1].sys
		return cfg
	}
}

func table6Latency(tb *Testbed, m table6Mode, iters int) float64 {
	m.compete(tb)
	return tcpPingPong(tb, iters, m.cfgFor(tb, 3072))
}

func table6Tput(tb *Testbed, m table6Mode, totalBytes, mss, writeSize int) float64 {
	m.compete(tb)
	return tcpStream(tb, totalBytes, writeSize, m.cfgFor(tb, mss))
}

// Table renders Table VI.
func (t Table6) Table() *Table {
	return &Table{
		Title:   "Table VI: TCP on the AN2 with the fast path in handlers",
		Note:    "latency in us; throughput in MB/s (MSS 3072); small MSS 536 with 4-KB writes",
		Columns: Table6Labels[:],
		Rows: []Row{
			{"latency (us)", t.Latency[:], PaperTable6.Latency[:]},
			{"throughput (MB/s)", t.Tput[:], PaperTable6.Tput[:]},
			{"throughput, small MSS", t.TputSmall[:], PaperTable6.TputSmall[:]},
		},
	}
}

// Table6TputDebug measures one mode's throughput, for diagnostics.
func Table6TputDebug(mode, bytes, mss, ws int) float64 {
	return inWorld(nil, an2Pair, func(w *world) float64 { return table6Tput(w.tb, table6Modes[mode], bytes, mss, ws) })
}
