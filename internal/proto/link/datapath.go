package link

import (
	"ashs/internal/aegis"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// Costed data-movement helpers for the user-level protocol libraries.
// Each pass moves real bytes and charges the calling process the cycles
// the DECstation memory model assigns: per 32-bit word, a (cache-modeled)
// load, a store for copies, the loop overhead, and the checksum accumulate
// when integrated. These are the same primitive costs the DILP engines
// charge, so library passes and generated engines are directly comparable
// (Table IV).

// passCost charges one streaming pass over data bytes [off, off+n) of f
// and, with store, their writes at dst+o: per 32-bit word a cache-modeled
// load, the optional store, the loop overhead and opCycles of ALU work.
// The cache is charged a contiguous run at a time: the words that start in
// one of the frame's lines (see aegis.Frame.Line), which for a contiguous
// frame is the whole pass.
func passCost(k *aegis.Kernel, f *aegis.Frame, off int, dst uint32, n int, store bool, opCycles int) sim.Time {
	if n <= 0 {
		return 0
	}
	cycles := sim.Time((n+3)/4) * sim.Time(k.Prof.LoopOverhead+opCycles)
	for o := 0; o < n; {
		addr, line := f.Line(off + o)
		run := min(n-o, (line+3)&^3)
		if store {
			cycles += k.Cache.CopyRange(addr, dst+uint32(o), run)
		} else {
			cycles += k.Cache.LoadRange(addr, run)
		}
		o += run
	}
	return cycles
}

// CksumRange traverses [addr, addr+n) computing the checksum (no copy).
func CksumRange(p *aegis.Process, k *aegis.Kernel, addr uint32, n int) uint32 {
	f := aegis.ContiguousFrame(k.Mem, addr, n)
	p.Compute(passCost(k, &f, 0, 0, n, false, k.Prof.CksumOp))
	return vcode.CksumData(0, k.Bytes(addr, n))
}

// framePassCost is passCost over frame payload from offset off. Striped
// (Ethernet) frames cost slightly more per line, as the generated strided
// loops do.
func framePassCost(k *aegis.Kernel, f *aegis.Frame, off int, dst uint32, n int, store bool, opCycles int) sim.Time {
	return passCost(k, f, off, dst, n, store, opCycles) + sim.Time(f.WholeLines(n))
}

// CopyFromFrame copies n bytes of frame payload (from offset off) to dst,
// charging p; with cksum the checksum is integrated. The checksum is taken
// over the destination once the bytes are there, which for a destination
// overlapping the payload is what was copied, not what is left of the
// source.
func CopyFromFrame(p *aegis.Process, f aegis.Frame, off int, dst uint32, n int, cksum bool) uint32 {
	k := p.K
	op := 0
	if cksum {
		op = k.Prof.CksumOp
	}
	cycles := framePassCost(k, &f, off, dst, n, true, op)
	d := k.Bytes(dst, n)
	f.Bytes(d, off, n)
	var acc uint32
	if cksum {
		acc = vcode.CksumData(0, d)
	}
	p.Compute(cycles)
	return acc
}

// CksumFromFrame traverses n bytes of frame payload computing the
// checksum in place (the "in place, with checksum" receive variant).
func CksumFromFrame(p *aegis.Process, f aegis.Frame, off int, n int) uint32 {
	cycles := framePassCost(p.K, &f, off, 0, n, false, p.K.Prof.CksumOp)
	acc := f.Cksum(off, n)
	p.Compute(cycles)
	return acc
}
