package bench

import (
	"ashs/internal/mach"
	"ashs/internal/pipe"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// Table3 is the copy-throughput microbenchmark (Section V-A1): 4096 bytes
// copied once, twice with the data cached for the second copy, and twice
// with an intervening cache flush.
type Table3 struct {
	SingleCopy     float64 // MB/s
	DoubleCopy     float64
	DoubleUncached float64
}

// PaperTable3 is Table III of the paper.
var PaperTable3 = Table3{SingleCopy: 20, DoubleCopy: 14, DoubleUncached: 11}

const microBytes = 4096

type microEnv struct {
	prof *mach.Profile
	m    *vcode.Machine
	src  uint32
	mid  uint32
	dst  uint32
}

func newMicroEnv() *microEnv {
	prof := mach.DS5000_240()
	mem := vcode.NewFlatMem(0, 1<<20)
	m := vcode.NewMachine(prof, mem)
	m.Cache = mach.NewCache(prof)
	for i := range mem.Data {
		mem.Data[i] = byte(i * 31)
	}
	// Buffer placement matters on a direct-mapped cache: the paper's
	// Methodology section reports picking best-case layouts ("we
	// automatically linked the kernel object files in many different
	// orders and picked a best-case timing"). These addresses are
	// distinct modulo the 64-KB cache size, so the buffers never conflict.
	return &microEnv{prof: prof, m: m, src: 0x10000, mid: 0x24000, dst: 0x38000}
}

// table3Cells wraps the microbenchmark as a single cell: it is one short
// pure-vcode run with no testbed to shard.
func table3Cells() []Cell { return []Cell{{Label: "table3", drive: table3Copies{}}} }

// table3Copies performs the measurements. Each case starts with the
// message uncached ("we assume that the message and its application-space
// destination are not cached when the message arrives, and so perform
// cache flushes at every iteration").
type table3Copies struct{}

func (table3Copies) drive(*Config, *world) any {
	copyEng := pipe.CompileCopy()
	run := func(passes int, flushBetween bool) float64 {
		env := newMicroEnv()
		env.m.Cache.Flush()
		var total sim.Time
		cycles, f := copyEng.Run(env.m, env.src, env.mid, microBytes)
		if f != nil {
			panic(f)
		}
		total += cycles
		if passes == 2 {
			if flushBetween {
				env.m.Cache.Flush()
			}
			cycles, f := copyEng.Run(env.m, env.mid, env.dst, microBytes)
			if f != nil {
				panic(f)
			}
			total += cycles
		}
		return env.prof.MBps(microBytes, total)
	}
	return Table3{
		SingleCopy:     run(1, false),
		DoubleCopy:     run(2, false),
		DoubleUncached: run(2, true),
	}
}

// Table renders Table III.
func (t Table3) Table() *Table {
	return &Table{
		Title:   "Table III: throughput for copies of 4096 bytes (MB/s)",
		Columns: []string{"MB/s"},
		Format:  "%.1f",
		Rows: []Row{
			{"single copy", []float64{t.SingleCopy}, []float64{PaperTable3.SingleCopy}},
			{"double copy", []float64{t.DoubleCopy}, []float64{PaperTable3.DoubleCopy}},
			{"double copy (uncached)", []float64{t.DoubleUncached}, []float64{PaperTable3.DoubleUncached}},
		},
	}
}

// Table4 is the integrated-vs-nonintegrated memory-operation comparison
// (Section V-A2), in MB/s.
type Table4 struct {
	// Rows: copy+checksum, copy+checksum+byteswap.
	Separate         [2]float64
	SeparateUncached [2]float64
	CIntegrated      [2]float64
	DILP             [2]float64
}

// PaperTable4 is Table IV of the paper.
var PaperTable4 = Table4{
	Separate:         [2]float64{11, 5.8},
	SeparateUncached: [2]float64{10, 5.1},
	CIntegrated:      [2]float64{16, 8.3},
	DILP:             [2]float64{17, 8.2},
}

// table4Cells enumerates one cell per (strategy, operation mix): each is an
// independent micro-machine run of the real pipe machinery. The separate
// strategy runs one full traversal per operation, "C integrated" is a
// hand-written fused loop, and DILP is the dynamically compiled engine of
// Figs. 1 and 2.
func table4Cells() []Cell {
	var cells []Cell
	for _, bswap := range []bool{false, true} {
		suffix := "cksum"
		if bswap {
			suffix = "cksum+bswap"
		}
		cells = append(cells,
			Cell{Label: "table4/separate/" + suffix, drive: table4Separate{bswap, false}},
			Cell{Label: "table4/separate-uncached/" + suffix, drive: table4Separate{bswap, true}},
			Cell{Label: "table4/c-integrated/" + suffix, drive: table4Hand{bswap}},
			Cell{Label: "table4/dilp/" + suffix, drive: table4DILP{bswap}},
		)
	}
	return cells
}

func mergeTable4(vs []any) Table4 {
	var out Table4
	for i := 0; i < 2; i++ {
		out.Separate[i] = vs[4*i].(float64)
		out.SeparateUncached[i] = vs[4*i+1].(float64)
		out.CIntegrated[i] = vs[4*i+2].(float64)
		out.DILP[i] = vs[4*i+3].(float64)
	}
	return out
}

// table4Separate is non-integrated processing: the data is copied, then
// checksummed by the library's classic halfword in_cksum routine, then
// (possibly) byteswapped by a third traversal.
type table4Separate struct{ withBswap, uncachedBetween bool }

func (d table4Separate) drive(*Config, *world) any {
	withBswap, uncachedBetween := d.withBswap, d.uncachedBetween
	copyEng := pipe.CompileCopy()
	env := newMicroEnv()
	env.m.Cache.Flush()
	var total sim.Time
	cycles, f := copyEng.Run(env.m, env.src, env.dst, microBytes)
	if f != nil {
		panic(f)
	}
	total += cycles

	if uncachedBetween {
		// "The uncached case represents what happens if much time occurs
		// in between the various data manipulation operations, and the
		// message gets flushed from the cache."
		env.m.Cache.Flush()
	}
	_, cycles2, err := pipe.LibCksumPass(env.m, env.dst, microBytes)
	if err != nil {
		panic(err)
	}
	total += cycles2

	if withBswap {
		pl := pipe.NewList(1)
		bs, err := pipe.Byteswap(pl)
		if err != nil {
			panic(err)
		}
		pass, err := pipe.CompilePass(bs)
		if err != nil {
			panic(err)
		}
		if uncachedBetween {
			env.m.Cache.Flush()
		}
		cycles, f := pass.Run(env.m, env.dst, env.dst, microBytes)
		if f != nil {
			panic(f)
		}
		total += cycles
	}
	return env.prof.MBps(microBytes, total)
}

// table4Hand is the hand-written fused loop.
type table4Hand struct{ withBswap bool }

func (d table4Hand) drive(*Config, *world) any {
	env := newMicroEnv()
	env.m.Cache.Flush()
	_, cycles, err := pipe.HandIntegrated(env.m, env.src, env.dst, microBytes, d.withBswap)
	if err != nil {
		panic(err)
	}
	return env.prof.MBps(microBytes, cycles)
}

// table4DILP is the dynamically compiled engine of the checksum pipe,
// with a byteswap pipe after it when withBswap is set.
type table4DILP struct{ withBswap bool }

func (d table4DILP) drive(*Config, *world) any {
	pl := pipe.NewList(2)
	ck, acc, err := pipe.Cksum(pl)
	if err != nil {
		panic(err)
	}
	if d.withBswap {
		if _, err := pipe.Byteswap(pl); err != nil {
			panic(err)
		}
	}
	eng, err := pipe.Compile(pl, pipe.Options{Output: true})
	if err != nil {
		panic(err)
	}
	env := newMicroEnv()
	env.m.Cache.Flush()
	eng.Export(env.m, ck, acc, 0)
	cycles, f := eng.Run(env.m, env.src, env.dst, microBytes)
	if f != nil {
		panic(f)
	}
	return env.prof.MBps(microBytes, cycles)
}

// Table renders Table IV.
func (t Table4) Table() *Table {
	return &Table{
		Title:   "Table IV: integrated vs non-integrated memory operations (MB/s)",
		Columns: []string{"copy&cksum", "copy&cksum&bswap"},
		Format:  "%.1f",
		Rows: []Row{
			{"separate", t.Separate[:], PaperTable4.Separate[:]},
			{"separate/uncached", t.SeparateUncached[:], PaperTable4.SeparateUncached[:]},
			{"C integrated", t.CIntegrated[:], PaperTable4.CIntegrated[:]},
			{"DILP", t.DILP[:], PaperTable4.DILP[:]},
		},
	}
}
