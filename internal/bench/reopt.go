package bench

import (
	"encoding/binary"
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/dpf"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
	"ashs/internal/vcode/reopt"
)

// The reopt experiment closes the DCG loop end to end and reports what it
// bought: each showcase handler is downloaded with profiling, warmed on
// real messages, hot-swapped via System.Reoptimize, and measured on the
// same message before and after. The chain and DPF rows measure the other
// two profile consumers (handler fusion, trie branch reordering), and the
// differential row re-runs the three-way harness over the whole registry
// as the safety receipt next to the performance claim.

// ReoptRun is one handler measured statically optimized vs re-optimized.
type ReoptRun struct {
	Name                      string
	StaticInsns, ReoptInsns   int64
	StaticCycles, ReoptCycles sim.Time
}

// ChainRun compares the interpreted two-member chain against the fused
// single download on the same accepted message.
type ChainRun struct {
	SeqInsns, FusedInsns   int64
	SeqCycles, FusedCycles sim.Time
}

// ReorderRun is total demux cycles over one skewed batch, insertion-order
// trie vs hit-reordered trie.
type ReorderRun struct {
	Packets       int
	Before, After sim.Time
}

// DiffSummary is the three-way differential sweep's receipt.
type DiffSummary struct {
	Handlers, Profiles, Modes, Rounds, Divergences int
}

// ReoptResult aggregates the experiment.
type ReoptResult struct {
	Shard   ReoptRun
	Sparse  ReoptRun
	Chain   ChainRun
	Reorder ReorderRun
	Diff    DiffSummary
}

const reoptWarmup = 6

func reoptCells() []Cell {
	return []Cell{
		{"reopt/hoist", func(cfg *Config) any { return runReoptHandler(cfg, false) }},
		{"reopt/coarsen", func(cfg *Config) any { return runReoptHandler(cfg, true) }},
		{"reopt/chain", func(cfg *Config) any { return runReoptChain(cfg) }},
		{"reopt/dpf-reorder", func(cfg *Config) any { return runReoptReorder(cfg) }},
		{"reopt/differential", func(cfg *Config) any { return runReoptDifferential(cfg) }},
	}
}

func mergeReopt(vs []any) ReoptResult {
	return ReoptResult{
		Shard:   vs[0].(ReoptRun),
		Sparse:  vs[1].(ReoptRun),
		Chain:   vs[2].(ChainRun),
		Reorder: vs[3].(ReorderRun),
		Diff:    vs[4].(DiffSummary),
	}
}

// RunReopt regenerates the DCG-loop before/after measurements.
func RunReopt(cfg *Config) ReoptResult {
	return mergeReopt(runCells(cfg, reoptCells()))
}

// runReoptHandler drives one showcase handler through the full loop on a
// live testbed: profile-downloaded, warmed, re-optimized in place, then
// measured on the identical message. sparse selects the multi-block
// budget-coarsening showcase (software budget mode); otherwise the
// message-carried-modulus divide-hoist showcase (timer mode).
func runReoptHandler(cfg *Config, sparse bool) ReoptRun {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	opts := core.Options{OptimizeSFI: true, Profile: true}
	if sparse {
		pol := *tb.Sys2.Policy
		pol.Budget = sandbox.BudgetSoftware
		tb.Sys2.Policy = &pol
		opts.Budget = 1 << 20
	}
	owner := tb.K2.Spawn("reopt-app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "state")

	var prog *vcode.Program
	var msg []byte
	if sparse {
		prog = crl.SparseRecordWriteHandler(seg.Base, seg.Base+2048)
		msg = make([]byte, crl.RecordBytes)
		for w := 0; w < crl.RecordBytes/4; w++ {
			v := uint32(w*7 + 1)
			if w%3 == 0 {
				v = 0 // skipped word: keeps the loop multi-block at run time
			}
			binary.BigEndian.PutUint32(msg[w*4:], v)
		}
	} else {
		prog = crl.ShardedCounterHandler(seg.Base)
		vals := make([]uint32, 1+crl.NumShardValues)
		vals[0] = 5 // modulus: message-carried, statically opaque
		for w := 0; w < crl.NumShardValues; w++ {
			vals[1+w] = uint32(w*13 + 1)
		}
		msg = make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.BigEndian.PutUint32(msg[i*4:], v)
		}
	}
	ash := tb.Sys2.MustDownload(owner, prog, opts)

	msgSeg := owner.AS.MustAlloc(4096, "synthetic-msg")
	copy(tb.K2.Bytes(msgSeg.Base, len(msg)), msg)
	entry := aegis.RingEntry{Addr: msgSeg.Base, Len: len(msg)}

	run := ReoptRun{Name: prog.Name}
	tb.Eng.Schedule(0, func() {
		once := func() (int64, sim.Time) { return runSynthetic(tb, owner, entry, ash) }
		for i := 0; i < reoptWarmup; i++ {
			run.StaticInsns, run.StaticCycles = once()
		}
		if _, err := tb.Sys2.Reoptimize(ash); err != nil {
			panic(err)
		}
		run.ReoptInsns, run.ReoptCycles = once()
		if run.ReoptInsns >= run.StaticInsns {
			panic(fmt.Sprintf("reopt %s: %d insns after re-optimization, %d before — no win",
				prog.Name, run.ReoptInsns, run.StaticInsns))
		}
	})
	tb.run()
	return run
}

// reoptBumpHandler is the fusion follower: bump a counter word, consume.
// (crl.IncrementHandler replies over the network; the chain comparison
// wants pure handler cost, so the bench carries its own follower.)
func reoptBumpHandler(addr uint32) *vcode.Program {
	b := vcode.NewBuilder("bench-chain-bump")
	c, v := b.Temp(), b.Temp()
	b.MovI(c, int32(addr))
	b.Ld32(v, c, 0)
	b.AddIU(v, v, 1)
	b.St32(c, 0, v)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// runReoptChain measures the validate→bump chain both ways: two installed
// handlers dispatched in sequence over one message vs one fused download
// whose seam test replaces the second dispatch.
func runReoptChain(cfg *Config) ChainRun {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	owner := tb.K2.Spawn("chain-app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "counter")
	opts := core.Options{OptimizeSFI: true}

	headProg := crl.ValidateHandler(0, crl.ChainMagic)
	tailProg := reoptBumpHandler(seg.Base)
	head := tb.Sys2.MustDownload(owner, headProg, opts)
	tail := tb.Sys2.MustDownload(owner, tailProg, opts)

	fusedProg, err := reopt.FuseChain("bench-chain-fused", headProg, tailProg)
	if err != nil {
		panic(err)
	}
	fused := tb.Sys2.MustDownload(owner, fusedProg, opts)

	msgSeg := owner.AS.MustAlloc(4096, "synthetic-msg")
	msg := tb.K2.Bytes(msgSeg.Base, 8)
	binary.BigEndian.PutUint32(msg, crl.ChainMagic)
	binary.BigEndian.PutUint32(msg[4:], 9)
	entry := aegis.RingEntry{Addr: msgSeg.Base, Len: 8}

	var run ChainRun
	tb.Eng.Schedule(0, func() {
		run.SeqInsns, run.SeqCycles = runSynthetic(tb, owner, entry, head, tail)
		run.FusedInsns, run.FusedCycles = runSynthetic(tb, owner, entry, fused)
	})
	tb.run()
	return run
}

// runReoptReorder measures the DPF trie on skewed traffic before and
// after hit-frequency branch reordering. Filters sharing a field share
// one branch (kid dispatch is a hash, order-free), so the scenario that
// reordering improves is sibling branches on distinct fields: a dozen
// shallow single-field filters installed before one deep filter that the
// traffic actually favors. Insertion order walks every shallow sibling
// at full cost; after Reorder the hot deep branch goes first, its match
// depth is established early, and the strictly-shallower siblings are
// pruned at the bound-test cost instead of a full trie step.
func runReoptReorder(cfg *Config) ReorderRun {
	e := dpf.NewEngine()
	const shallow = 12
	for i := 0; i < shallow; i++ {
		if _, err := e.Insert(dpf.NewFilter().Eq8(40+i, 7)); err != nil {
			panic(err)
		}
	}
	deep := dpf.NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq16(36, 1000)
	if _, err := e.Insert(deep); err != nil {
		panic(err)
	}
	pkt := func(shallowIdx int) []byte {
		p := make([]byte, 64)
		if shallowIdx >= 0 {
			p[40+shallowIdx] = 7
			return p
		}
		p[12], p[13] = 0x08, 0x00
		p[23] = 17
		p[36], p[37] = byte(1000>>8), byte(1000&0xff)
		return p
	}
	// 7 of 8 packets hit the deep (last-installed) filter.
	var batch [][]byte
	for i := 0; i < 64; i++ {
		idx := -1
		if i%8 == 7 {
			idx = i % shallow
		}
		batch = append(batch, pkt(idx))
	}
	sweep := func() sim.Time {
		var total sim.Time
		for _, p := range batch {
			_, c, ok := e.Demux(p)
			if !ok {
				panic("reopt: trie miss")
			}
			total += c
		}
		return total
	}
	run := ReorderRun{Packets: len(batch)}
	run.Before = sweep() // also accumulates the hit counters
	e.Reorder()
	run.After = sweep()
	if run.After >= run.Before {
		panic(fmt.Sprintf("reorder: %d cycles after, %d before — no win", run.After, run.Before))
	}
	return run
}

// runReoptDifferential re-runs the three-way harness over the full crl
// registry under both budget strategies with the measured profile and the
// adversarial bank — the safety receipt printed beside the speedups. Any
// divergence panics the cell.
func runReoptDifferential(cfg *Config) DiffSummary {
	modes := []sandbox.BudgetMode{sandbox.BudgetTimer, sandbox.BudgetSoftware}
	lib := crl.Library()
	s := DiffSummary{Handlers: len(lib), Modes: len(modes)}
	rounds := 4
	if !cfg.quick() {
		rounds = 6
	}
	for _, e := range lib {
		n := len(e.Prog.Insns)
		sat := make([]uint64, n)
		for i := range sat {
			sat[i] = ^uint64(0)
		}
		profiles := []*reopt.Profile{
			nil, // measured by the harness itself
			{Handler: e.Prog.Name, Invocations: 0, Counts: make([]uint64, n)},
			{Handler: e.Prog.Name, Invocations: 1, Counts: sat},
		}
		s.Profiles = len(profiles)
		for _, mode := range modes {
			dcfg := sandbox.DiffConfig{Budget: mode, Rounds: rounds, Msg: e.Msg, Setup: e.Setup}
			for _, prof := range profiles {
				out, err := sandbox.ThreeWay(e.Prog, prof, dcfg)
				if err != nil {
					panic(fmt.Sprintf("differential %s: %v", e.Name, err))
				}
				s.Rounds += out.Rounds
			}
		}
	}
	return s
}

// Table renders the before/after comparison.
func (r ReoptResult) Table() *Table {
	f := func(v int64) float64 { return float64(v) }
	c := func(v sim.Time) float64 { return float64(v) }
	return &Table{
		Title:   "DCG loop: profile-guided re-optimization (before / after)",
		Note:    "insns and cycles per message on the identical message; chain compares sequential dispatch vs fused download",
		Columns: []string{"static-opt", "reopt"},
		Format:  "%.0f",
		Rows: []Row{
			{"shard-counter insns/msg (div hoist)", []float64{f(r.Shard.StaticInsns), f(r.Shard.ReoptInsns)}, nil},
			{"shard-counter cyc/msg", []float64{c(r.Shard.StaticCycles), c(r.Shard.ReoptCycles)}, nil},
			{"sparse-record insns/msg (budget coarsen)", []float64{f(r.Sparse.StaticInsns), f(r.Sparse.ReoptInsns)}, nil},
			{"sparse-record cyc/msg", []float64{c(r.Sparse.StaticCycles), c(r.Sparse.ReoptCycles)}, nil},
			{"chain insns/msg (sequential vs fused)", []float64{f(r.Chain.SeqInsns), f(r.Chain.FusedInsns)}, nil},
			{"chain cyc/msg", []float64{c(r.Chain.SeqCycles), c(r.Chain.FusedCycles)}, nil},
			{"dpf demux cyc/batch (insertion vs reordered)", []float64{c(r.Reorder.Before), c(r.Reorder.After)}, nil},
		},
	}
}

func renderReopt(vs []any) string {
	r := mergeReopt(vs)
	return r.Table().Render() + fmt.Sprintf(
		"\ndifferential: %d handlers x %d profiles x %d budget modes, %d rounds, %d divergences\n",
		r.Diff.Handlers, r.Diff.Profiles, r.Diff.Modes, r.Diff.Rounds, r.Diff.Divergences)
}
