package bench

import (
	"strconv"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/dpf"
	"ashs/internal/sim"
)

// SandboxResult is the Section V-D sandboxing-overhead experiment: the
// generic vs application-specific remote write, run in isolation (no
// communication), sandboxed and not, at 40 and 4096 bytes.
type SandboxResult struct {
	// Dynamic instruction counts (excluding the copied data), 40-byte run.
	GenericInsns         int64 // generic protocol, hand-crafted (unsafe)
	SpecificInsns        int64 // app-specific, hand-crafted (unsafe)
	SpecificSandboxInsns int64 // app-specific, sandboxed
	AddedBySandbox       int64
	// Execution-time ratios sandboxed/unsafe.
	Ratio40   float64
	Ratio4096 float64

	// The static-analysis ablation (not in the paper): the same handlers
	// under the optimizing sandboxer (check elision, loop hoisting).
	GenericSandboxInsns int64 // generic, naively sandboxed
	GenericOptInsns     int64 // generic, optimized sandbox
	SpecificOptInsns    int64 // app-specific, optimized sandbox
	// The record-copy loop variant, where the optimizer's loop passes
	// (hoisting, budget coarsening) apply.
	RecordInsns        int64 // record loop, unsafe
	RecordSandboxInsns int64 // record loop, naively sandboxed
	RecordOptInsns     int64 // record loop, optimized sandbox
}

// PaperSandbox holds the paper's Section V-D numbers.
var PaperSandbox = SandboxResult{
	GenericInsns: 68, SpecificInsns: 10, SpecificSandboxInsns: 38,
	AddedBySandbox: 28, Ratio40: 1.35, Ratio4096: 1.015,
}

// sandboxCells enumerates every (handler, mode, size) measurement; the
// merge step derives the reported deltas and ratios.
func sandboxCells() []Cell {
	write := func(label string, generic bool, mode sboxMode, nbytes int) Cell {
		return Cell{"sandbox/" + label, func(cfg *Config) any {
			return runWriteHandler(cfg, generic, mode, nbytes)
		}}
	}
	record := func(label string, mode sboxMode) Cell {
		return Cell{"sandbox/" + label, func(cfg *Config) any {
			return runRecordHandler(cfg, mode)
		}}
	}
	return []Cell{
		write("generic-unsafe-40", true, sbUnsafe, 40),
		write("specific-unsafe-40", false, sbUnsafe, 40),
		write("specific-naive-40", false, sbNaive, 40),
		write("specific-unsafe-4096", false, sbUnsafe, 4096),
		write("specific-naive-4096", false, sbNaive, 4096),
		write("generic-naive-40", true, sbNaive, 40),
		write("generic-opt-40", true, sbOptimized, 40),
		write("specific-opt-40", false, sbOptimized, 40),
		record("record-unsafe", sbUnsafe),
		record("record-naive", sbNaive),
		record("record-opt", sbOptimized),
	}
}

func mergeSandbox(vs []any) SandboxResult {
	run := func(i int) handlerRun { return vs[i].(handlerRun) }
	var r SandboxResult
	r.GenericInsns = run(0).insns
	spec40u, spec40s := run(1), run(2)
	r.SpecificInsns = spec40u.insns
	r.SpecificSandboxInsns = spec40s.insns
	r.AddedBySandbox = spec40s.insns - spec40u.insns
	r.Ratio40 = float64(spec40s.cycles) / float64(spec40u.cycles)
	r.Ratio4096 = float64(run(4).cycles) / float64(run(3).cycles)
	r.GenericSandboxInsns = run(5).insns
	r.GenericOptInsns = run(6).insns
	r.SpecificOptInsns = run(7).insns
	r.RecordInsns = run(8).insns
	r.RecordSandboxInsns = run(9).insns
	r.RecordOptInsns = run(10).insns
	return r
}

// RunSandbox regenerates the Section V-D measurements, plus the
// naive-vs-optimized sandbox ablation this reproduction adds.
func RunSandbox(cfg *Config) SandboxResult {
	return mergeSandbox(runCells(cfg, sandboxCells()))
}

type handlerRun struct {
	insns  int64
	cycles sim.Time
}

// sboxMode selects how a measured handler is downloaded.
type sboxMode int

const (
	sbUnsafe    sboxMode = iota // verified only, no instrumentation
	sbNaive                     // per-access SFI checks
	sbOptimized                 // SFI with the static-analysis optimizer
)

func (m sboxMode) options() core.Options {
	return core.Options{Unsafe: m == sbUnsafe, OptimizeSFI: m == sbOptimized}
}

// runWriteHandler executes a remote-write handler on a synthetic message
// in isolation (Section V-D's methodology) and reports its dynamic
// instruction count (excluding data copying, which runs through the
// trusted engine) and total cycles.
func runWriteHandler(cfg *Config, generic bool, mode sboxMode, nbytes int) handlerRun {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	owner := tb.K2.Spawn("dsm-app", func(p *aegis.Process) {})
	node := crl.NewNode(tb.Sys2, owner)
	segID, seg, err := node.AddSegment(8192, "shared")
	if err != nil {
		panic(err)
	}

	var prog = crl.TrustedWriteHandler()
	if generic {
		prog = crl.GenericWriteHandler(node.TableAddr(), crl.MaxSegments, 0, 1)
	}
	ash := tb.Sys2.MustDownload(owner, prog, mode.options())

	// Build the message in a buffer in the owner's space.
	msgSeg := owner.AS.MustAlloc(8192, "synthetic-msg")
	msg := tb.K2.Bytes(msgSeg.Base, 8192)
	var msgLen int
	if generic {
		be := func(off int, v uint32) {
			msg[off] = byte(v >> 24)
			msg[off+1] = byte(v >> 16)
			msg[off+2] = byte(v >> 8)
			msg[off+3] = byte(v)
		}
		be(0, 0x44534d21)
		be(4, 1<<16)
		be(8, 42)
		be(12, uint32(segID))
		be(16, 64)
		be(20, uint32(nbytes))
		msgLen = 24 + nbytes
	} else {
		be := func(off int, v uint32) {
			msg[off] = byte(v >> 24)
			msg[off+1] = byte(v >> 16)
			msg[off+2] = byte(v >> 8)
			msg[off+3] = byte(v)
		}
		be(0, seg.Base+64)
		be(4, uint32(nbytes))
		msgLen = 8 + nbytes
	}

	var run handlerRun
	tb.Eng.Schedule(0, func() {
		mc := aegis.SyntheticMsg(tb.K2, owner, aegis.RingEntry{Addr: msgSeg.Base, Len: msgLen})
		d := ash.HandleMsg(mc)
		if d != aegis.DispConsumed || ash.InvoluntaryFault != nil {
			panic(ash.InvoluntaryFault)
		}
		run.insns = ash.LastInsns()
		run.cycles = mc.Cost()
	})
	tb.run()
	return run
}

// runRecordHandler executes the fixed-record copy loop (the loop-shaped
// variant of the Section V-D write) on a synthetic message and reports
// its dynamic instruction count.
func runRecordHandler(cfg *Config, mode sboxMode) handlerRun {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	owner := tb.K2.Spawn("dsm-app", func(p *aegis.Process) {})
	node := crl.NewNode(tb.Sys2, owner)
	_, seg, err := node.AddSegment(8192, "shared")
	if err != nil {
		panic(err)
	}
	prog := crl.FixedRecordWriteHandler(seg.Base+64, seg.Base)
	ash := tb.Sys2.MustDownload(owner, prog, mode.options())

	msgSeg := owner.AS.MustAlloc(4096, "synthetic-msg")
	msg := tb.K2.Bytes(msgSeg.Base, 4096)
	for i := 0; i < crl.RecordBytes; i++ {
		msg[i] = byte(i)
	}

	var run handlerRun
	tb.Eng.Schedule(0, func() {
		mc := aegis.SyntheticMsg(tb.K2, owner, aegis.RingEntry{Addr: msgSeg.Base, Len: crl.RecordBytes})
		d := ash.HandleMsg(mc)
		if d != aegis.DispConsumed || ash.InvoluntaryFault != nil {
			panic(ash.InvoluntaryFault)
		}
		run.insns = ash.LastInsns()
		run.cycles = mc.Cost()
	})
	tb.run()
	return run
}

// Table renders the Section V-D results.
func (r SandboxResult) Table() *Table {
	return &Table{
		Title:   "Section V-D: sandboxing overhead (remote write)",
		Note:    "instruction counts exclude data copying; ratios are sandboxed/unsafe execution time",
		Columns: []string{"value"},
		Format:  "%.2f",
		Rows: []Row{
			{"generic hand-crafted (insns)", []float64{float64(r.GenericInsns)}, []float64{float64(PaperSandbox.GenericInsns)}},
			{"app-specific hand-crafted (insns)", []float64{float64(r.SpecificInsns)}, []float64{float64(PaperSandbox.SpecificInsns)}},
			{"app-specific sandboxed (insns)", []float64{float64(r.SpecificSandboxInsns)}, []float64{float64(PaperSandbox.SpecificSandboxInsns)}},
			{"added by sandboxing (insns)", []float64{float64(r.AddedBySandbox)}, []float64{float64(PaperSandbox.AddedBySandbox)}},
			{"time ratio, 40-byte write", []float64{r.Ratio40}, []float64{PaperSandbox.Ratio40}},
			{"time ratio, 4096-byte write", []float64{r.Ratio4096}, []float64{PaperSandbox.Ratio4096}},
			{"app-specific optimized sandbox (insns)", []float64{float64(r.SpecificOptInsns)}, nil},
			{"generic sandboxed naive (insns)", []float64{float64(r.GenericSandboxInsns)}, nil},
			{"generic sandboxed optimized (insns)", []float64{float64(r.GenericOptInsns)}, nil},
			{"record loop hand-crafted (insns)", []float64{float64(r.RecordInsns)}, nil},
			{"record loop sandboxed naive (insns)", []float64{float64(r.RecordSandboxInsns)}, nil},
			{"record loop sandboxed optimized (insns)", []float64{float64(r.RecordOptInsns)}, nil},
		},
	}
}

// DPFResult compares the DPF discrimination trie against an MPF-class
// interpreted engine as installed filters accumulate (Section IV-A's
// order-of-magnitude claim).
type DPFResult struct {
	Filters []int
	Trie    []float64 // us per demux decision
	Linear  []float64
}

// RunDPF regenerates the comparison.
func RunDPF(cfg *Config) DPFResult {
	return runCells(cfg, dpfCells())[0].(DPFResult)
}

// dpfCells wraps the demux comparison as one cell: the engine runs are
// microseconds of pure table walking, not worth sharding.
func dpfCells() []Cell {
	return []Cell{{"dpf", func(cfg *Config) any { return runDPF(cfg) }}}
}

func runDPF(cfg *Config) DPFResult {
	// Only the profile is used, but the config's Obs hook fires on every
	// testbed a cell builds and what it returns lands in the -trace output.
	tb := NewAN2Testbed(cfg)
	prof := tb.Prof
	tb.close()
	var r DPFResult
	for _, n := range []int{1, 4, 16, 64} {
		e := dpf.NewEngine()
		for i := 0; i < n; i++ {
			f := dpf.NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq16(36, uint16(1000+i))
			if _, err := e.Insert(f); err != nil {
				panic(err)
			}
		}
		pkt := make([]byte, 64)
		pkt[12], pkt[13] = 0x08, 0x00
		pkt[23] = 17
		pkt[36] = byte((1000 + n - 1) >> 8)
		pkt[37] = byte(1000 + n - 1)
		_, tc, ok := e.Demux(pkt)
		if !ok {
			panic("dpf: trie miss")
		}
		_, lc, ok := e.DemuxLinear(pkt)
		if !ok {
			panic("dpf: linear miss")
		}
		r.Filters = append(r.Filters, n)
		r.Trie = append(r.Trie, prof.Us(tc))
		r.Linear = append(r.Linear, prof.Us(lc))
	}
	return r
}

// Table renders the DPF comparison.
func (r DPFResult) Table() *Table {
	tab := &Table{
		Title:   "DPF vs interpreted demultiplexing (us per decision, worst-case filter)",
		Columns: []string{"DPF trie", "interpreted"},
		Format:  "%.2f",
	}
	for i, n := range r.Filters {
		tab.Rows = append(tab.Rows, Row{
			Label:    "filters=" + strconv.Itoa(n),
			Measured: []float64{r.Trie[i], r.Linear[i]},
		})
	}
	return tab
}
