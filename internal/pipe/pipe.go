// Package pipe implements pipes and dynamic integrated layer processing
// (DILP), Sections II-B and III-C of the paper.
//
// A pipe is a small computation on streaming data (a checksum accumulate, a
// byteswap) written in vcode against the pipe pseudo-instructions
// p_input32/p_output32: it consumes and produces one 32-bit word. Pipes
// are gathered into a pipe list and handed to the DILP compiler, which
// fuses them into a single integrated data-transfer engine: one loop, one
// memory traversal, all manipulations applied per word. The paper's
// Fig. 1/Fig. 2 example — composing a checksum pipe with a byteswap pipe —
// is reproduced verbatim by Cksum + Byteswap + Compile.
//
// For the Table IV comparison the package also compiles one pipe as a pass
// of its own (CompilePass), from which a caller composes the *separate*
// (non-integrated) form — one full memory traversal per pipe — and gives
// the hand-integrated form (HandIntegrated), the "C integrated" row of the
// paper.
//
// The paper also lets a pipe declare a narrower gauge (8 or 16 bits) and
// has the system convert between sizes. Every pipe of the paper's tables
// is 32-bit, so this package has no gauges: the fused loop applies each
// pipe once per word.
package pipe

import (
	"fmt"

	"ashs/internal/vcode"
)

// Attr is a pipe attribute bitmask: the paper's P_NO_MOD. Its
// P_COMMUTATIVE, which lets a pipe see message data out of order, is not
// kept: the fused loop always traverses the data in order.
type Attr uint

// NoMod pipes do not alter their input (e.g. a checksum); in separate
// compilation they need no store pass.
const NoMod Attr = 1

// Pipe is one data-manipulation stage.
type Pipe struct {
	ID      int
	Name    string
	Attrs   Attr
	Body    *vcode.Program
	inReg   vcode.Reg // register the body's p_input32 names
	outReg  vcode.Reg // register the body's p_output32 names
	persist []vcode.Reg
}

// List is a pipe list (the paper's pipel): an ordered collection of pipes
// awaiting composition.
type List struct {
	pipes  []*Pipe
	nextID int
}

// NewList initializes a pipe list (the paper's pipel(n); capacity is
// advisory only here).
func NewList(capacity int) *List {
	return &List{pipes: make([]*Pipe, 0, capacity)}
}

// Pipes returns the pipes in composition order.
func (l *List) Pipes() []*Pipe { return append([]*Pipe(nil), l.pipes...) }

// Lambda defines a new pipe (the paper's pipe_lambda). The body callback
// receives a fresh builder; it must begin by reading its input with
// b.Input32 into a register of its choosing and end by emitting exactly one
// b.Output32. Registers allocated with b.Persistent survive across pipe
// applications and can be imported/exported through the compiled engine.
func (l *List) Lambda(name string, attrs Attr, body func(b *vcode.Builder)) (*Pipe, error) {
	b := vcode.NewBuilder(name)
	body(b)
	prog, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	p := &Pipe{ID: l.nextID, Name: name, Attrs: attrs, Body: prog,
		persist: prog.Persistent}
	if err := p.validate(); err != nil {
		return nil, err
	}
	l.nextID++
	l.pipes = append(l.pipes, p)
	return p, nil
}

// validate enforces the pipe shape the compiler can fuse: the first
// instruction is the only Input32, the last instruction before Ret is the
// only Output32, and intra-body branches stay inside the body. The body
// runs in the kernel, so it also refuses every op the handler verifier
// refuses at download time, by the same opcode classes, and every
// register field past the register file.
func (p *Pipe) validate() error {
	ins := p.Body.Insns
	if len(ins) < 3 {
		return fmt.Errorf("pipe %s: body too short (need input, work, output)", p.Name)
	}
	if ins[0].Op != vcode.OpInput32 {
		return fmt.Errorf("pipe %s: body must begin with p_input32", p.Name)
	}
	if ins[len(ins)-1].Op != vcode.OpRet {
		return fmt.Errorf("pipe %s: body must end with ret", p.Name)
	}
	if ins[len(ins)-2].Op != vcode.OpOutput32 {
		return fmt.Errorf("pipe %s: body must end with p_output32", p.Name)
	}
	for i, in := range ins {
		if !in.RegsInFile() {
			return fmt.Errorf("pipe %s: register outside the register file at %d (%s)", p.Name, i, in)
		}
	}
	p.inReg = ins[0].Rd
	p.outReg = ins[len(ins)-2].Rs
	for i, in := range ins[1 : len(ins)-2] {
		switch {
		case in.Op.Is(vcode.PipeOp):
			return fmt.Errorf("pipe %s: stray pipe pseudo-op mid-body at %d", p.Name, i+1)
		case in.Op >= vcode.NumOps, in.Op.Is(vcode.Float | vcode.Signed | vcode.Reserved),
			in.Op == vcode.OpCall, in.Op == vcode.OpJmpR, in.Op == vcode.OpRet:
			return fmt.Errorf("pipe %s: %v not allowed inside a pipe body", p.Name, in.Op)
		case in.Op.Is(vcode.Load | vcode.Store):
			return fmt.Errorf("pipe %s: pipes may not access memory directly", p.Name)
		case in.Op.Is(vcode.Branch) && (in.Target < 1 || int(in.Target) > len(ins)-2):
			return fmt.Errorf("pipe %s: branch escapes pipe body", p.Name)
		}
	}
	// The body must not overwrite its own input register if it is NoMod:
	// the engine forwards the unchanged word downstream.
	if p.Attrs&NoMod != 0 && p.outReg != p.inReg {
		return fmt.Errorf("pipe %s: NoMod pipe must output its input register", p.Name)
	}
	return nil
}

// Cksum declares the Internet-checksum pipe of the paper's Fig. 2: a
// non-modifying pipe that folds each input word into a persistent
// accumulator with end-around carry. It returns the pipe and the
// accumulator register handle (the paper's cksum_reg) for import/export
// through the compiled engine.
func Cksum(l *List) (*Pipe, vcode.Reg, error) {
	var acc vcode.Reg
	p, err := l.Lambda("cksum", NoMod, func(b *vcode.Builder) {
		acc = b.Persistent()         // accumulate register, preserved across applications
		b.Input32(vcode.RInput)      // get 32 bits of input from the pipe
		b.Cksum32(acc, vcode.RInput) // add input value to checksum accumulator
		b.Output32(vcode.RInput)     // pass 32 bits of output to next pipe
	})
	if err != nil {
		return nil, 0, err
	}
	return p, acc, nil
}

// Byteswap declares a pipe swapping each word between big and little
// endian (the second pipe of the paper's Fig. 1).
func Byteswap(l *List) (*Pipe, error) {
	return l.Lambda("byteswap", 0, func(b *vcode.Builder) {
		out := b.Temp()
		b.Input32(vcode.RInput)
		b.Bswap(out, vcode.RInput)
		b.Output32(out)
	})
}
