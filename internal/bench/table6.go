package bench

import "ashs/internal/proto/tcp"

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

// table6Mode is a column's connection, MSS 3072: where the fast path runs,
// and whether the user-level library polls or, suspended, competes for
// its host's CPU.
func table6Mode(mode tcp.Mode, polling, suspended bool) tcpPair {
	cfg := tcp.DefaultConfig()
	cfg.Mode, cfg.Polling = mode, polling
	return tcpPair{cfg, suspended}
}

var table6Modes = [5]tcpPair{
	table6Mode(tcp.ModeASH, true, false),
	table6Mode(tcp.ModeASHUnsafe, true, false),
	table6Mode(tcp.ModeUpcall, true, false),
	table6Mode(tcp.ModeUser, false, true),
	table6Mode(tcp.ModeUser, true, false),
}

// table6Cells enumerates one cell per (mode, measurement): 15 independent
// TCP worlds.
func table6Cells(p Table6Params) []Cell {
	var cells []Cell
	for i, m := range table6Modes {
		label := "table6/" + Table6Labels[i]
		small := m
		small.cfg.MSS = 536
		cells = append(cells,
			onWorld(label+"/latency", an2Pair, tcpPingPong{m, p.LatIters}),
			onWorld(label+"/tput", an2Pair, tcpStream{m, p.TCPBytes, 8192}),
			onWorld(label+"/tput-small", an2Pair, tcpStream{small, p.TCPBytes / 2, 4096}),
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
	pair := table6Modes[mode]
	pair.cfg.MSS = mss
	return onWorld("", an2Pair, tcpStream{pair, bytes, ws}).Run(nil).(float64)
}
