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
		return Cell{"sandbox/" + label, func(cfg *Config) any {
			return runIsolated(cfg, nil, opts, h, nbytes)
		}}
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
	return mergeSandbox(runCells(cfg, sandboxCells()))
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

// runIsolated executes one remote-write handler on a synthetic message (see
// runSynthetic), downloaded with opts under safety policy pol (nil: the
// system's default). The two writes carry nbytes of payload; the record
// loop's message is one record.
func runIsolated(cfg *Config, pol *sandbox.Policy, opts core.Options, h isolatedHandler, nbytes int) handlerRun {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	if pol != nil {
		tb.Sys2.Policy = pol
	}
	owner := tb.K2.Spawn("dsm-app", func(p *aegis.Process) {})
	node := crl.NewNode(tb.Sys2, owner)
	segID, seg, err := node.AddSegment(8192, "shared")
	if err != nil {
		panic(err)
	}

	prog := crl.TrustedWriteHandler()
	switch h {
	case genericWrite:
		prog = crl.GenericWriteHandler(node.TableAddr(), crl.MaxSegments, 0, 1)
	case recordWrite:
		prog = crl.FixedRecordWriteHandler(seg.Base+64, seg.Base)
	}
	ash := tb.Sys2.MustDownload(owner, prog, opts)

	// Build the message in a buffer in the owner's space.
	msgSeg := owner.AS.MustAlloc(8192, "synthetic-msg")
	msg := tb.K2.Bytes(msgSeg.Base, 8192)
	var msgLen int
	switch h {
	case trustedWrite:
		binary.BigEndian.PutUint32(msg[0:], seg.Base+64)
		binary.BigEndian.PutUint32(msg[4:], uint32(nbytes))
		msgLen = 8 + nbytes
	case genericWrite:
		binary.BigEndian.PutUint32(msg[0:], 0x44534d21)
		binary.BigEndian.PutUint32(msg[4:], 1<<16)
		binary.BigEndian.PutUint32(msg[8:], 42)
		binary.BigEndian.PutUint32(msg[12:], uint32(segID))
		binary.BigEndian.PutUint32(msg[16:], 64)
		binary.BigEndian.PutUint32(msg[20:], uint32(nbytes))
		msgLen = 24 + nbytes
	case recordWrite:
		for i := 0; i < crl.RecordBytes; i++ {
			msg[i] = byte(i)
		}
		msgLen = crl.RecordBytes
	}

	var run handlerRun
	tb.Eng.Schedule(0, func() {
		run.insns, run.cycles = runSynthetic(tb, owner, aegis.RingEntry{Addr: msgSeg.Base, Len: msgLen}, ash)
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
