package pipe

import (
	"fmt"

	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// Options configures DILP compilation (the paper's compile_pl second
// argument: PIPE_WRITE produces a copying engine).
type Options struct {
	// Output controls whether the engine writes transformed words to the
	// destination (a copying engine) or only traverses the source (a pure
	// manipulation pass such as checksum verification).
	Output bool
}

// Engine is a compiled integrated transfer engine: the specialized data
// copying loop the DILP system generates (the paper's ilp handle). Run it
// against a machine to move/manipulate a buffer while charging exactly the
// cycles the generated loop would cost.
type Engine struct {
	Prog *vcode.Program
	// regmap translates each pipe's own registers into the fused
	// program's register space ("binding the context inside the pipe").
	regmap map[int]map[vcode.Reg]vcode.Reg
}

// asm is a tiny absolute assembler used by the fusion compiler.
type asm struct {
	ins     []vcode.Insn
	nextReg vcode.Reg
}

func newAsm() *asm { return &asm{nextReg: 8} }

func (a *asm) reg() vcode.Reg {
	r := a.nextReg
	for r == vcode.RSbox || r == vcode.RInput {
		r++
	}
	if r >= vcode.NumRegs {
		panic("pipe: fused engine out of registers")
	}
	a.nextReg = r + 1
	return r
}

func (a *asm) emit(in vcode.Insn) int {
	a.ins = append(a.ins, in)
	return len(a.ins) - 1
}

func (a *asm) here() int { return len(a.ins) }

// Compile fuses the pipe list into one integrated engine (dynamic ILP).
// The generated loop streams 32-bit words: load, apply every pipe in
// order, optionally store, advance.
//
// Calling convention of the generated program: RArg0 = source address,
// RArg1 = destination address, RArg2 = byte count (multiple of 4).
func Compile(l *List, opts Options) (*Engine, error) {
	a := newAsm()
	regmap := map[int]map[vcode.Reg]vcode.Reg{}

	idx := a.reg()
	cur := a.reg()

	// Pre-map every pipe's registers so persistent registers are stable
	// regardless of loop structure.
	for _, p := range l.pipes {
		pm := map[vcode.Reg]vcode.Reg{}
		for _, r := range collectRegs(p.Body) {
			if r == vcode.RZero || r == p.inReg {
				continue
			}
			pm[r] = a.reg()
		}
		regmap[p.ID] = pm
	}

	// if len == 0 goto end (patched below).
	guard := a.emit(vcode.Insn{Op: vcode.OpBeq, Rs: vcode.RArg2, Rt: vcode.RZero})
	a.emit(vcode.Insn{Op: vcode.OpMovI, Rd: idx, Imm: 0})
	loop := a.here()
	a.emit(vcode.Insn{Op: vcode.OpLd32X, Rd: cur, Rs: vcode.RArg0, Rt: idx})
	word := cur
	for _, p := range l.pipes {
		var err error
		word, err = inlinePipe(a, p, regmap[p.ID], word)
		if err != nil {
			return nil, err
		}
	}
	if opts.Output {
		a.emit(vcode.Insn{Op: vcode.OpSt32X, Rs: vcode.RArg1, Rt: idx, Rd: word})
	}
	a.emit(vcode.Insn{Op: vcode.OpAddIU, Rd: idx, Rs: idx, Imm: 4})
	a.emit(vcode.Insn{Op: vcode.OpBltU, Rs: idx, Rt: vcode.RArg2, Target: int32(loop)})
	end := a.here()
	a.emit(vcode.Insn{Op: vcode.OpRet})
	a.ins[guard].Target = int32(end)

	// Collect remapped persistent registers.
	var persist []vcode.Reg
	for _, p := range l.pipes {
		for _, r := range p.persist {
			persist = append(persist, regmap[p.ID][r])
		}
	}

	name := "dilp"
	for _, p := range l.pipes {
		name += "+" + p.Name
	}
	return &Engine{
		Prog: &vcode.Program{
			Name:       name,
			Insns:      a.ins,
			Persistent: persist,
			NextReg:    a.nextReg,
		},
		regmap: regmap,
	}, nil
}

// CompileCopy returns a pure copying engine (no pipes): the baseline
// "single copy" data-transfer loop.
func CompileCopy() *Engine {
	e, err := Compile(NewList(0), Options{Output: true})
	if err != nil {
		panic(err) // empty list cannot fail
	}
	e.Prog.Name = "copy"
	return e
}

// CompilePass compiles a single pipe as a standalone, non-integrated
// traversal (one full pass over memory), for the Table IV "separate"
// strategy. NoMod pipes read without writing back; modifying pipes rewrite
// the buffer in place (run with src == dst) or into a destination.
func CompilePass(p *Pipe) (*Engine, error) {
	l := NewList(1)
	l.pipes = append(l.pipes, p)
	l.nextID = p.ID + 1
	return Compile(l, Options{Output: p.Attrs&NoMod == 0})
}

// collectRegs returns every register the body names (other than R0).
func collectRegs(prog *vcode.Program) []vcode.Reg {
	seen := map[vcode.Reg]bool{}
	var out []vcode.Reg
	add := func(r vcode.Reg) {
		if r != vcode.RZero && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, in := range prog.Insns {
		add(in.Rd)
		add(in.Rs)
		add(in.Rt)
	}
	return out
}

// inlinePipe emits pipe p's body once with its input mapped to register
// in, applying the register map and retargeting internal branches, and
// returns the register holding the pipe's output.
func inlinePipe(a *asm, p *Pipe, pm map[vcode.Reg]vcode.Reg, in vcode.Reg) (vcode.Reg, error) {
	body := p.Body.Insns
	// Drop Input32 (index 0), Output32 (len-2) and Ret (len-1).
	inner := body[1 : len(body)-2]
	start := a.here()
	mapReg := func(r vcode.Reg) vcode.Reg {
		if r == p.inReg {
			return in
		}
		if r == vcode.RZero {
			return r
		}
		if m, ok := pm[r]; ok {
			return m
		}
		return r
	}
	for _, insn := range inner {
		if p.inReg != vcode.RZero && insn.Defs().Has(p.inReg) {
			return 0, fmt.Errorf("pipe %s: body writes its input register; cannot coalesce", p.Name)
		}
		out := insn
		out.Rd = mapReg(insn.Rd)
		out.Rs = mapReg(insn.Rs)
		out.Rt = mapReg(insn.Rt)
		if insn.Op.Is(vcode.Branch) {
			// Body targets are in [1, len-2]; re-base onto the fused code.
			out.Target = int32(start) + insn.Target - 1
		}
		a.emit(out)
	}
	return mapReg(p.outReg), nil
}

// RegOf translates a pipe's own register handle (e.g. the checksum
// accumulator returned by Cksum) into the fused program's register.
func (e *Engine) RegOf(p *Pipe, r vcode.Reg) vcode.Reg {
	if m, ok := e.regmap[p.ID]; ok {
		if f, ok := m[r]; ok {
			return f
		}
	}
	return r
}

// Export sets a pipe's persistent register before a run (the paper:
// "Export is used to initialize a register before use").
func (e *Engine) Export(m *vcode.Machine, p *Pipe, r vcode.Reg, v uint32) {
	m.Regs[e.RegOf(p, r)] = v
}

// Import reads a pipe's persistent register after a run ("import to obtain
// a register's value, e.g. to determine if a checksum succeeded").
func (e *Engine) Import(m *vcode.Machine, p *Pipe, r vcode.Reg) uint32 {
	return m.Regs[e.RegOf(p, r)]
}

// Run executes the engine over [src, src+n) -> [dst, dst+n) on machine m
// and returns the cycles charged. n must be a multiple of 4 (the paper's
// pipes assume word-multiple messages); protocols pad odd tails.
func (e *Engine) Run(m *vcode.Machine, src, dst uint32, n int) (sim.Time, *vcode.Fault) {
	if n%4 != 0 {
		return 0, &vcode.Fault{Kind: vcode.FaultUnaligned, Msg: "DILP length not a multiple of 4"}
	}
	// Persistent registers must survive Run's counter reset but argument
	// registers are ours to set.
	m.Regs[vcode.RArg0] = src
	m.Regs[vcode.RArg1] = dst
	m.Regs[vcode.RArg2] = uint32(n)
	f := m.Run(e.Prog)
	return m.Cycles, f
}
