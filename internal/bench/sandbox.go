package bench

import (
	"encoding/binary"
	"strconv"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/dpf"
	"ashs/internal/sandbox"
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
	// How a measured handler is downloaded: verified only, with per-access
	// SFI checks, or with SFI under the static-analysis optimizer.
	unsafe, naive, opt := core.Options{Unsafe: true}, core.Options{}, core.Options{OptimizeSFI: true}
	cell := func(label string, h isolatedHandler, opts core.Options, nbytes int) Cell {
		return onWorld("sandbox/"+label, an2Pair, isolated{h: h, opts: opts, nbytes: nbytes})
	}
	return []Cell{
		cell("generic-unsafe-40", genericWrite, unsafe, 40),
		cell("specific-unsafe-40", trustedWrite, unsafe, 40),
		cell("specific-naive-40", trustedWrite, naive, 40),
		cell("specific-unsafe-4096", trustedWrite, unsafe, 4096),
		cell("specific-naive-4096", trustedWrite, naive, 4096),
		cell("generic-naive-40", genericWrite, naive, 40),
		cell("generic-opt-40", genericWrite, opt, 40),
		cell("specific-opt-40", trustedWrite, opt, 40),
		cell("record-unsafe", recordWrite, unsafe, 0),
		cell("record-naive", recordWrite, naive, 0),
		cell("record-opt", recordWrite, opt, 0),
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
	return mergeSandbox(cellResults(cfg, sandboxCells()))
}

type handlerRun struct {
	insns  int64
	cycles sim.Time
}

// isolatedHandler names the remote-write variants run in isolation.
type isolatedHandler int

const (
	trustedWrite isolatedHandler = iota // application-specific: the message names its destination
	genericWrite                        // the generic protocol: header, segment-table lookup, bounds
	recordWrite                         // the fixed-record copy loop (the loop-shaped variant)
)

// isolated runs one remote-write handler on a synthetic message (see
// synthetic), downloaded with opts under safety policy pol (the zero
// Policy is the system's default). The two writes carry nbytes of payload;
// the record loop's message is one record.
type isolated struct {
	h      isolatedHandler
	opts   core.Options
	nbytes int
	pol    sandbox.Policy
}

func (d isolated) drive(_ *Config, w *world) any {
	tb := w.tb
	tb.Sys2.Policy = &d.pol
	var ash *core.ASH
	var r handlerRun
	synthetic(tb, "dsm-app", 8192, func(owner *aegis.Process) []byte {
		node := crl.NewNode(tb.Sys2, owner)
		segID, seg, err := node.AddSegment(8192, "shared")
		if err != nil {
			panic(err)
		}
		prog := crl.TrustedWriteHandler()
		switch d.h {
		case genericWrite:
			prog = crl.GenericWriteHandler(node.TableAddr(), crl.MaxSegments, 0, 1)
		case recordWrite:
			prog = crl.FixedRecordWriteHandler(seg.Base+64, seg.Base)
		}
		ash = tb.Sys2.MustDownload(owner, prog, d.opts)
		var msg []byte
		switch d.h {
		case trustedWrite:
			msg = binary.BigEndian.AppendUint32(nil, seg.Base+64)
			msg = binary.BigEndian.AppendUint32(msg, uint32(d.nbytes))
		case genericWrite:
			for _, v := range []uint32{0x44534d21, 1 << 16, 42, uint32(segID), 64, uint32(d.nbytes)} {
				msg = binary.BigEndian.AppendUint32(msg, v)
			}
		case recordWrite:
			for i := 0; i < crl.RecordBytes; i++ {
				msg = append(msg, byte(i))
			}
			return msg
		}
		return append(msg, make([]byte, d.nbytes)...)
	}, func(run func(...*core.ASH) (int64, sim.Time)) {
		r.insns, r.cycles = run(ash)
	})
	return r
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

// dpfCells wraps the demux comparison as one cell: the engine runs are
// microseconds of pure table walking, not worth sharding. Its world serves
// only for the profile, but the config's Obs hook fires on every testbed a
// cell builds and what it returns lands in the -trace output.
func dpfCells() []Cell { return []Cell{onWorld("dpf", an2Pair, dpfCompare{})} }

// dpfCompare times the worst-case filter's demux, trie and linear, as 1 to
// 64 filters accumulate.
type dpfCompare struct{}

func (dpfCompare) drive(cfg *Config, w *world) any {
	prof := w.prof
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
		cfg.count(EngineCounts{DPF: e.Work()})
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
