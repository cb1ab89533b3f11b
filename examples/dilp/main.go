// DILP: the paper's Figs. 1 and 2 as a runnable program.
//
// A checksum pipe and a byteswap pipe are composed at runtime and compiled
// into one integrated data-transfer engine; the engine moves a 4-KB
// message in a single traversal while checksumming and swapping. The same
// work done as separate passes (copy, then checksum, then swap) costs
// ~1.4-1.6x more — Table IV's integrated-layer-processing result.
//
//	go run ./examples/dilp
package main

import (
	"fmt"
	"math/rand"

	"ashs"
	"ashs/internal/mach"
	"ashs/internal/pipe"
	"ashs/internal/vcode"
)

const n = 4096

func main() {
	// Fig. 1: compose and compile checksum and byteswap pipes.
	pl := ashs.NewPipeList(2)
	cksum, cksumReg, err := ashs.CksumPipe(pl) // Fig. 2's mk_cksum_pipe
	if err != nil {
		panic(err)
	}
	if _, err := ashs.ByteswapPipe(pl); err != nil {
		panic(err)
	}
	ilp, err := ashs.CompilePipes(pl, true) // compile_pl(pl, PIPE_WRITE)
	if err != nil {
		panic(err)
	}
	fmt.Printf("compiled integrated engine: %d instructions for %d pipes\n",
		ilp.Prog.Len(), len(pl.Pipes()))

	// A simulated DECstation memory system to run against.
	prof := mach.DS5000_240()
	mem := vcode.NewFlatMem(0, 1<<20)
	m := vcode.NewMachine(prof, mem)
	m.Cache = mach.NewCache(prof)
	src, dst := uint32(0x10000), uint32(0x24000)
	rand.New(rand.NewSource(1)).Read(mem.Data[src : src+n])

	// Integrated: one traversal does copy + checksum + byteswap.
	m.Cache.Flush() // the message arrives uncached
	ilp.Export(m, cksum, cksumReg, 0)
	cycles, fault := ilp.Run(m, src, dst, n)
	if fault != nil {
		panic(fault)
	}
	sum := vcode.Fold16(ilp.Import(m, cksum, cksumReg))
	fmt.Printf("\nintegrated (DILP):   %5.1f us  %5.1f MB/s   checksum=0x%04x\n",
		prof.Us(cycles), prof.MBps(n, cycles), sum)

	// Separate passes: copy, then the library checksum, then a swap pass.
	m2 := vcode.NewMachine(prof, mem)
	m2.Cache = mach.NewCache(prof)
	m2.Cache.Flush()
	copyEng := pipe.CompileCopy()
	c1, fault := copyEng.Run(m2, src, dst, n)
	if fault != nil {
		panic(fault)
	}
	_, c2, err := pipe.LibCksumPass(m2, dst, n)
	if err != nil {
		panic(err)
	}
	pl2 := pipe.NewList(1)
	bs, err := pipe.Byteswap(pl2)
	if err != nil {
		panic(err)
	}
	pass, err := pipe.CompilePass(bs)
	if err != nil {
		panic(err)
	}
	c3, fault := pass.Run(m2, dst, dst, n)
	if fault != nil {
		panic(fault)
	}
	total := c1 + c2 + c3
	fmt.Printf("separate passes:     %5.1f us  %5.1f MB/s\n",
		prof.Us(total), prof.MBps(n, total))
	fmt.Printf("\nintegration benefit: %.2fx (paper Table IV: ~1.4x)\n",
		float64(total)/float64(cycles))
}
