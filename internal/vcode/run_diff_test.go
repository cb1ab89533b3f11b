package vcode_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/crl"
	"ashs/internal/mach"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// The differential tests run one program on two identically prepared
// machines — Machine.Run and RunReference, the loop it replaced — and
// require the same fault (kind, pc, addr, message), Cycles, Insns,
// registers, memory, cache statistics, cache line residency and PCCounts.

const (
	diffMemBase = 0x1000
	diffMemSize = 0x4000
)

// memKind is what the machine's Memory is made of.
type memKind int

const (
	memFlat             memKind = iota // a FlatMem at diffMemBase
	memJournal                         // a Journal over that
	memAddrSpace                       // an aegis.AddrSpace: one segment, all of a small host's memory
	memJournalAddrSpace                // a Journal over that: what a downloaded handler runs over
)

// diffSetup is one machine configuration both sides are built with.
type diffSetup struct {
	name       string
	insnBudget int64
	cycleLimit sim.Time
	softBudget int64
	pcCounts   bool
	mem        memKind
	absent     bool // the last page of an AddrSpace memory is not resident
	noCache    bool
	cacheBytes int // a smaller cache than the profile's, so that lines of the window conflict
}

// base is where the setup's memory starts: the tests write their addresses
// against diffMemBase and add base()-diffMemBase when they load them.
func (s diffSetup) base() uint32 {
	if s.mem == memAddrSpace || s.mem == memJournalAddrSpace {
		return aegis.HostMemBase
	}
	return diffMemBase
}

var diffSetups = []diffSetup{
	{name: "no limit"},
	{name: "no cache", noCache: true},
	{name: "InsnBudget", insnBudget: 97},
	{name: "CycleLimit", cycleLimit: 333},
	{name: "SoftBudget", softBudget: 40},
	{name: "PCCounts", pcCounts: true},
	{name: "Journal", mem: memJournal},
	{name: "everything", insnBudget: 5000, cycleLimit: 9000, softBudget: 900, pcCounts: true, mem: memJournal},
}

// diffSide is one of the two machines of a comparison. flat is the bytes
// under whatever the machine's Memory is; journal is that Memory when it is
// one.
type diffSide struct {
	m       *vcode.Machine
	flat    *vcode.FlatMem
	journal *vcode.Journal
}

func newDiffSide(s diffSetup, codeLen int, seed func(*vcode.FlatMem), attach func(*vcode.Machine)) *diffSide {
	prof := mach.DS5000_240()
	if s.cacheBytes != 0 {
		prof = prof.Clone()
		prof.CacheBytes = s.cacheBytes
	}
	d := &diffSide{}
	var mem vcode.Memory
	if s.base() == diffMemBase {
		d.flat = vcode.NewFlatMem(diffMemBase, diffMemSize)
		mem = d.flat
	} else {
		k := aegis.NewKernelMem("diff", sim.NewEngine(), prof, diffMemSize)
		as := k.NewAddrSpace("diff")
		as.MustAlloc(diffMemSize, "mem")
		if s.absent {
			as.Unpin(aegis.HostMemBase + diffMemSize - 1)
		}
		d.flat, mem = k.Mem, as
	}
	seed(d.flat)
	if s.mem == memJournal || s.mem == memJournalAddrSpace {
		d.journal = vcode.NewJournal(mem)
		mem = d.journal
	}
	d.m = vcode.NewMachine(prof, mem)
	if !s.noCache {
		d.m.Cache = mach.NewCache(prof)
	}
	d.m.InsnBudget, d.m.CycleLimit, d.m.SoftBudget = s.insnBudget, s.cycleLimit, s.softBudget
	if s.pcCounts {
		// Shorter than the program: the pc >= len(PCCounts) case counts nothing.
		d.m.PCCounts = make([]uint64, max(codeLen-2, 1))
	}
	d.m.Syms = diffSyms(d)
	if attach != nil {
		attach(d.m)
	}
	return d
}

// diffSyms are kernel entry points that do everything a syscall may do to
// the machine that runs it: charge cycles, count instructions, read the
// running totals, touch registers and memory, fail with a fault and with a
// plain error.
func diffSyms(d *diffSide) []vcode.SyscallFn {
	inMem := func(addr uint32, n int) error {
		if addr < diffMemBase || uint64(addr)+uint64(n) > diffMemBase+diffMemSize {
			return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: addr, Msg: "syscall range"}
		}
		return nil
	}
	return vcode.SymTable(map[string]vcode.SyscallFn{
		"charge": func(m *vcode.Machine) error {
			m.Charge(sim.Time(m.Regs[vcode.RArg0] & 0xff))
			n := m.Regs[vcode.RArg1] & 7 // n straight-line instructions
			m.Insns += int64(n)
			m.Cycles += sim.Time(n)
			return nil
		},
		"totals": func(m *vcode.Machine) error {
			m.Regs[vcode.RRet] = uint32(m.Cycles)<<8 ^ uint32(m.Insns)
			return nil
		},
		"fault": func(m *vcode.Machine) error {
			m.Charge(3)
			return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: m.Regs[vcode.RArg0], Msg: "from syscall"}
		},
		"error": func(m *vcode.Machine) error { return errors.New("plain error") },
		"ash_send": func(m *vcode.Machine) error {
			m.Charge(4)
			return inMem(m.Regs[vcode.RArg2], int(m.Regs[vcode.RArg3]))
		},
		"ash_copy": func(m *vcode.Machine) error {
			src, dst, n := m.Regs[vcode.RArg0], m.Regs[vcode.RArg1], int(m.Regs[vcode.RArg2])
			m.Charge(12)
			if err := inMem(src, n); err != nil {
				return err
			}
			if err := inMem(dst, n); err != nil {
				return err
			}
			copy(d.flat.Data[dst-diffMemBase:][:n], d.flat.Data[src-diffMemBase:][:n])
			if m.Cache != nil {
				m.Charge(m.Cache.CopyRange(src, dst, n))
			}
			return nil
		},
		"ash_msg_load": func(m *vcode.Machine) error {
			w, err := vcode.Load32(d.flat, crl.LibSegBase+0x800+m.Regs[vcode.RArg0])
			if err != nil {
				return err
			}
			m.Regs[vcode.RRet] = w
			m.Charge(2)
			return nil
		},
	})
}

func describeFault(f *vcode.Fault) string {
	if f == nil {
		return "clean return"
	}
	return fmt.Sprintf("kind %d pc %d addr %#x msg %q", f.Kind, f.PC, f.Addr, f.Msg)
}

// compare runs run on the new loop and on the reference and reports any
// observable difference.
func compare(t *testing.T, what string, got, want *diffSide, prog *vcode.Program) {
	t.Helper()
	gf, wf := got.m.Run(prog), vcode.RunReference(want.m, prog)
	if describeFault(gf) != describeFault(wf) {
		t.Fatalf("%s: fault: %s, reference: %s\n%s", what, describeFault(gf), describeFault(wf), prog)
	}
	if got.m.Cycles != want.m.Cycles || got.m.Insns != want.m.Insns {
		t.Fatalf("%s (%s): cycles %d insns %d, reference %d/%d\n%s", what, describeFault(gf),
			got.m.Cycles, got.m.Insns, want.m.Cycles, want.m.Insns, prog)
	}
	if got.m.Regs != want.m.Regs {
		t.Fatalf("%s: registers differ\n got %v\nwant %v\n%s", what, got.m.Regs, want.m.Regs, prog)
	}
	if !bytes.Equal(got.flat.Data, want.flat.Data) {
		t.Fatalf("%s: memory differs\n%s", what, prog)
	}
	if !slices.Equal(got.m.PCCounts, want.m.PCCounts) {
		t.Fatalf("%s: PCCounts differ\n got %v\nwant %v\n%s", what, got.m.PCCounts, want.m.PCCounts, prog)
	}
	if gc, wc := got.m.Cache, want.m.Cache; gc != nil &&
		(gc.Hits != wc.Hits || gc.Misses != wc.Misses || gc.Stores != wc.Stores) {
		t.Fatalf("%s: cache hits/misses/stores %d/%d/%d, reference %d/%d/%d\n%s", what,
			gc.Hits, gc.Misses, gc.Stores, wc.Hits, wc.Misses, wc.Stores, prog)
	}
	if got.m.Cache != nil {
		for addr := got.flat.Base; addr < got.flat.Base+diffMemSize; addr += 16 {
			if g, w := got.m.Cache.Resident(addr), want.m.Cache.Resident(addr); g != w {
				t.Fatalf("%s: line of %#x resident: %v, reference %v\n%s", what, addr, g, w, prog)
			}
		}
	}
}

// randomSyms are what a random OpCall calls: diffSyms' entry points, a name
// with no entry, no entry point at all, and an id past every table.
var randomSyms = []vcode.Sym{
	vcode.Intern("charge"), vcode.Intern("charge"), vcode.Intern("totals"), vcode.Intern("totals"),
	vcode.Intern("fault"), vcode.Intern("error"), vcode.Intern("no such entry"), 0, math.MaxUint32,
}

// randomProgram builds a program out of every opcode the interpreter
// knows (and one it does not). Registers r1..r7 hold data, r8..r11
// addresses that are mostly inside memory, mostly aligned; most programs
// also hold a streaming loop (appendStreamLoop) somewhere in that code.
// With loops, branches go both ways and most programs end on a budget, a
// fault or by running off the end rather than on their Ret; without (for
// machines that have no instruction or cycle limit to stop them) every
// jump but the streaming loop's own is forward.
func randomProgram(r *rand.Rand, loops bool) *vcode.Program {
	n := 8 + r.Intn(40)
	reg := func() vcode.Reg { return vcode.Reg(1 + r.Intn(11)) }
	addrReg := func() vcode.Reg { return vcode.Reg(8 + r.Intn(4)) }
	ins := make([]vcode.Insn, 0, n+8)
	for a := vcode.Reg(8); a < 12; a++ {
		addr := uint32(diffMemBase + 4*r.Intn(diffMemSize/4))
		switch r.Intn(12) {
		case 0:
			addr += uint32(1 + r.Intn(3)) // unaligned
		case 1:
			addr = diffMemBase + diffMemSize - uint32(r.Intn(8)) // at or past the end
		case 2:
			addr = diffMemBase - 4*uint32(r.Intn(3)) // at or before the base
		}
		ins = append(ins, vcode.Insn{Op: vcode.OpMovI, Rd: a, Imm: int32(addr)})
	}
	alu := []vcode.Op{vcode.OpMov, vcode.OpAddU, vcode.OpSubU, vcode.OpAnd, vcode.OpOr, vcode.OpXor,
		vcode.OpNor, vcode.OpSll, vcode.OpSrl, vcode.OpSltU, vcode.OpMulU, vcode.OpAddIU, vcode.OpAndI,
		vcode.OpOrI, vcode.OpXorI, vcode.OpSllI, vcode.OpSrlI, vcode.OpSltIU, vcode.OpCksum32,
		vcode.OpBswap, vcode.OpMovI, vcode.OpNop}
	mem := []vcode.Op{vcode.OpLd32, vcode.OpLd16, vcode.OpLd8, vcode.OpSt32, vcode.OpSt16, vcode.OpSt8}
	branch := []vcode.Op{vcode.OpBeq, vcode.OpBne, vcode.OpBltU, vcode.OpBgeU, vcode.OpJmp}
	rare := []vcode.Op{vcode.OpDivU, vcode.OpRemU, vcode.OpChkDiv, vcode.OpAdd, vcode.OpFMul,
		vcode.OpInput32, vcode.OpJmpR, vcode.OpRet, vcode.OpSboxMask, vcode.OpSboxChk, vcode.Op(250)}
	for len(ins) < n {
		if r.Intn(25) == 0 {
			ins = appendStreamLoop(r, ins, alu, reg, addrReg)
			continue
		}
		in := vcode.Insn{Rd: reg(), Rs: reg(), Rt: reg(), Imm: int32(r.Intn(64))}
		switch k := r.Intn(20); {
		case k < 8:
			in.Op = alu[r.Intn(len(alu))]
		case k < 13:
			in.Op, in.Rs, in.Imm = mem[r.Intn(len(mem))], addrReg(), int32(4*r.Intn(8))
			if r.Intn(10) == 0 {
				in.Imm++
			}
		case k < 14:
			// Indexed: rs + rt, a small index in rt.
			in.Op = []vcode.Op{vcode.OpLd32X, vcode.OpSt32X, vcode.OpLd8X, vcode.OpSt8X}[r.Intn(4)]
			in.Rs, in.Rt = addrReg(), vcode.Reg(12)
			ins = append(ins, vcode.Insn{Op: vcode.OpMovI, Rd: 12, Imm: int32(4 * r.Intn(16))})
		case k < 17:
			in.Op, in.Target = branch[r.Intn(len(branch))], int32(r.Intn(n+2))
			if !loops {
				in.Target = int32(len(ins) + 1 + r.Intn(n))
			}
		case k < 18:
			in.Op = vcode.OpChkBudget
		case k < 19:
			in.Op, in.Sym = vcode.OpCall, randomSyms[r.Intn(len(randomSyms))]
		default:
			in.Op = rare[r.Intn(len(rare))]
			if in.Op == vcode.OpJmpR && !loops {
				in.Op = vcode.OpRemU
			}
		}
		ins = append(ins, in)
	}
	if r.Intn(3) > 0 {
		ins = append(ins, vcode.Insn{Op: vcode.OpRet})
	}
	return &vcode.Program{Name: "random", Insns: ins}
}

// appendStreamLoop embeds a word loop: r12 steps by 4 up to a small bound
// in r13, neither of which the caller's register choosers return, so the
// loop ends whatever its body does. Three bodies in four are the
// copy+checksum the streaming-loop executor matches (stream.go), the rest
// are drawn from the ALU ops with or without a store, which it must leave
// to the interpreter.
// The registers are drawn like everyone else's: some copy+checksum loops
// match, some write their own address register, and the random code around
// them may jump into the middle of one.
func appendStreamLoop(r *rand.Rand, ins []vcode.Insn, alu []vcode.Op, reg, addrReg func() vcode.Reg) []vcode.Insn {
	const idx, end = vcode.Reg(12), vcode.Reg(13)
	ins = append(ins,
		vcode.Insn{Op: vcode.OpMovI, Rd: idx, Imm: int32(4 * r.Intn(4))},
		vcode.Insn{Op: vcode.OpMovI, Rd: end, Imm: int32(r.Intn(160))})
	head := len(ins)
	w := reg()
	ins = append(ins, vcode.Insn{Op: vcode.OpLd32X, Rd: w, Rs: addrReg(), Rt: idx})
	if r.Intn(4) > 0 {
		ins = append(ins, vcode.Insn{Op: vcode.OpCksum32, Rd: reg(), Rs: w},
			vcode.Insn{Op: vcode.OpSt32X, Rd: w, Rs: addrReg(), Rt: idx})
	} else {
		for j := r.Intn(4); j > 0; j-- {
			ins = append(ins, vcode.Insn{Op: alu[r.Intn(len(alu))], Rd: reg(), Rs: reg(), Rt: reg(), Imm: int32(r.Intn(64))})
		}
		if r.Intn(2) == 0 {
			ins = append(ins, vcode.Insn{Op: vcode.OpSt32X, Rd: reg(), Rs: addrReg(), Rt: idx})
		}
	}
	return append(ins,
		vcode.Insn{Op: vcode.OpAddIU, Rd: idx, Rs: idx, Imm: 4},
		vcode.Insn{Op: vcode.OpBltU, Rs: idx, Rt: end, Target: int32(head)})
}

func TestRunMatchesReferenceOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	seed := func(f *vcode.FlatMem) {
		for i := range f.Data {
			f.Data[i] = byte(i * 7)
		}
	}
	ends := map[string]int{}
	streamed := 0
	for i := 0; i < 4000; i++ {
		s := diffSetups[i%len(diffSetups)]
		prog := randomProgram(r, s.insnBudget > 0 || s.cycleLimit > 0)
		attach := func(m *vcode.Machine) {
			m.SboxBase, m.SboxLimit = diffMemBase+0x100, diffMemBase+0x2000
			if i%3 == 0 {
				m.JmpTable = make([]int, len(prog.Insns))
				for j := range m.JmpTable {
					m.JmpTable[j] = (j*5 + 1) % (len(prog.Insns) + 1)
				}
			}
			for j := 1; j < 8; j++ {
				m.Regs[j] = uint32(j * (i + 1))
			}
		}
		got := newDiffSide(s, len(prog.Insns), seed, attach)
		want := newDiffSide(s, len(prog.Insns), seed, attach)
		// Twice: the second run starts from the first one's registers,
		// memory, cache and counts, and must reset Cycles and Insns.
		compare(t, s.name, got, want, prog)
		compare(t, s.name+", second run", got, want, prog)
		if got.m.Streamed > 0 {
			streamed++
		}
		ends[describeEnd(got.m.Run(prog))]++
	}
	if streamed < 200 {
		t.Errorf("the streaming-loop executor engaged in %d random programs, want at least 200", streamed)
	}
	// The generator must keep reaching every kind of exit, or the test
	// above compares less than it claims to.
	for _, kind := range []vcode.FaultKind{vcode.FaultNone, vcode.FaultBadAddr, vcode.FaultDivZero,
		vcode.FaultBudget, vcode.FaultBadJump, vcode.FaultIllegalOp, vcode.FaultBadCall,
		vcode.FaultUnaligned, vcode.FaultFloat, vcode.FaultOverflow} {
		if ends[describeEnd(&vcode.Fault{Kind: kind})] == 0 {
			t.Errorf("no random program ended with fault kind %d (ends seen: %v)", kind, ends)
		}
	}
}

func describeEnd(f *vcode.Fault) string {
	if f == nil {
		return describeEnd(&vcode.Fault{Kind: vcode.FaultNone})
	}
	return fmt.Sprint("kind ", int(f.Kind))
}

// TestRunMatchesReferenceOnLibrary runs every handler of the crl registry
// — as written, and as the sandboxer instruments it under the timer and
// the software-budget strategies — over its own messages.
func TestRunMatchesReferenceOnLibrary(t *testing.T) {
	software := sandbox.DefaultPolicy()
	software.Budget = sandbox.BudgetSoftware
	optimized := sandbox.DefaultPolicy()
	optimized.Optimize = true
	policies := []struct {
		name string
		pol  *sandbox.Policy
	}{{"as written", nil}, {"timer", sandbox.DefaultPolicy()}, {"software budget", software}, {"optimized", optimized}}

	for _, e := range crl.Library() {
		for _, p := range policies {
			prog, attach := e.Prog, func(*vcode.Machine) {}
			if p.pol != nil {
				sp, err := sandbox.Sandbox(e.Prog, p.pol)
				if err != nil {
					t.Fatalf("%s under %s: %v", e.Name, p.name, err)
				}
				prog = sp.Code
				attach = func(m *vcode.Machine) {
					// A software budget small enough that the longer
					// handlers run out of it.
					sp.Attach(m, diffMemBase, diffMemBase+diffMemSize, 60)
				}
			}
			seed := func(f *vcode.FlatMem) {
				if e.Setup != nil {
					e.Setup(func(addr, val uint32) {
						if err := vcode.Store32(f, addr, val); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
			for _, s := range diffSetups {
				s.softBudget = 0 // Attach decides
				got := newDiffSide(s, len(prog.Insns), seed, attach)
				want := newDiffSide(s, len(prog.Insns), seed, attach)
				for i := 0; i < 6; i++ {
					msg := e.Msg(i)
					for _, d := range []*diffSide{got, want} {
						copy(d.flat.Data[crl.LibSegBase+0x800-diffMemBase:], msg)
						d.m.Regs[vcode.RArg0] = crl.LibSegBase + 0x800
						d.m.Regs[vcode.RArg1] = uint32(len(msg))
						d.m.Regs[vcode.RArg2] = 0
						d.m.Regs[vcode.RArg3] = uint32(i)
					}
					compare(t, fmt.Sprintf("%s, %s, %s, message %d", e.Name, p.name, s.name, i), got, want, prog)
				}
			}
		}
	}
}

// The streaming-loop executor (stream.go) against the loop it replaces.
// The programs below are laid out, and their registers allocated, as
// pipe.Compile does it: src, dst and length arrive in RArg0..RArg2, the
// index is r8 and the word r9.
const (
	strSrc, strDst, strLen = vcode.RArg0, vcode.RArg1, vcode.RArg2
	strIdx, strWord        = vcode.Reg(8), vcode.Reg(9)
)

func insn(op vcode.Op, rd, rs, rt vcode.Reg, imm int32) vcode.Insn {
	return vcode.Insn{Op: op, Rd: rd, Rs: rs, Rt: rt, Imm: imm}
}

// streamShape is one loop body: the register-only instructions between the
// load and the store, and the register the store writes out (no store when
// out is RZero). streams marks the one body the executor runs.
type streamShape struct {
	name    string
	mid     []vcode.Insn
	out     vcode.Reg
	streams bool
}

var cksum16Body = []vcode.Insn{
	insn(vcode.OpSrlI, 11, strWord, 0, 16), insn(vcode.OpAndI, 11, 11, 0, 0xffff), insn(vcode.OpCksum32, 10, 11, 0, 0),
	insn(vcode.OpAndI, 11, strWord, 0, 0xffff), insn(vcode.OpCksum32, 10, 11, 0, 0),
}

// streamShapes are the engines pipe.Compile can emit without striping, the
// checksum loop of hotpath.NewHandlerProgram, one body that holds every
// register-only op, each with a destination of its own so that the
// register comparison pins each of its cases, and four bodies one edit
// away from cksum+copy. cksum+copy is the executor's; every other shape is
// the interpreter's (Streamed stays 0), and all of them run as the
// reference runs them.
var streamShapes = []streamShape{
	{name: "copy", out: strWord},
	{name: "cksum", mid: []vcode.Insn{insn(vcode.OpCksum32, 10, strWord, 0, 0)}},
	{name: "cksum+copy", mid: []vcode.Insn{insn(vcode.OpCksum32, 10, strWord, 0, 0)}, out: strWord, streams: true},
	{name: "byteswap", mid: []vcode.Insn{insn(vcode.OpBswap, 10, strWord, 0, 0)}, out: 10},
	{name: "xor", mid: []vcode.Insn{insn(vcode.OpMovI, 10, 0, 0, 0x5a5a1234), insn(vcode.OpXor, 11, strWord, 10, 0)}, out: 11},
	{name: "cksum16", mid: cksum16Body},
	{name: "cksum16+copy", mid: cksum16Body, out: strWord},
	{name: "handler sum", mid: []vcode.Insn{insn(vcode.OpAddU, 10, 10, strWord, 0)}},
	{name: "every op", out: 3, mid: []vcode.Insn{
		insn(vcode.OpNop, strIdx, 0, 0, 0), // a nop writes nothing, whatever its Rd says
		insn(vcode.OpMovI, 10, 0, 0, 0x1234567),
		insn(vcode.OpMov, 11, strWord, 0, 0),
		insn(vcode.OpAddU, 12, strWord, 10, 0),
		insn(vcode.OpSubU, 13, 12, strIdx, 0),
		insn(vcode.OpAnd, 14, strWord, 13, 0),
		insn(vcode.OpOr, 15, strWord, 10, 0),
		insn(vcode.OpXor, 16, 15, 14, 0),
		insn(vcode.OpNor, 17, strWord, 16, 0),
		insn(vcode.OpSll, 18, strWord, strIdx, 0),
		insn(vcode.OpSrl, 19, strWord, strIdx, 0),
		insn(vcode.OpSltU, 20, strWord, 12, 0),
		insn(vcode.OpMulU, 21, strWord, 13, 0),
		insn(vcode.OpAddIU, 22, 21, 0, -7),
		insn(vcode.OpAndI, 23, strWord, 0, 0xff0),
		insn(vcode.OpOrI, 24, strWord, 0, 0x101),
		insn(vcode.OpXorI, 25, 24, 0, 0x7777),
		insn(vcode.OpSllI, 26, strWord, 0, 5),
		insn(vcode.OpSrlI, 27, strWord, 0, 41), // shifts use the low five bits
		insn(vcode.OpSltIU, 29, strWord, 0, 0x40000000),
		insn(vcode.OpCksum32, 31, 21, 0, 0),
		insn(vcode.OpCksum32, 31, strWord, 0, 0),
		insn(vcode.OpBswap, 1, 31, 0, 0),
		insn(vcode.OpBswap, strWord, strWord, 0, 0), // the body may write the word
		insn(vcode.OpXor, 3, 1, strWord, 0),
		insn(vcode.OpAddU, 2, strLen, strSrc, 0),
	}},
	{name: "word sums itself", mid: []vcode.Insn{insn(vcode.OpCksum32, strWord, strWord, 0, 0)}, out: strWord},
	{name: "sum of another register", mid: []vcode.Insn{insn(vcode.OpCksum32, 10, 11, 0, 0)}, out: strWord},
	{name: "store the sum", mid: []vcode.Insn{insn(vcode.OpCksum32, 10, strWord, 0, 0)}, out: 10},
	{name: "swap aside", mid: []vcode.Insn{insn(vcode.OpBswap, 10, strWord, 0, 0)}, out: strWord},
}

// strHead is the pc of the loop's load in streamProgram's programs.
const strHead = 2

// streamProgram assembles the engine: guard, index from i0, the loop, ret.
func streamProgram(sh streamShape, i0 uint32) *vcode.Program {
	ins := []vcode.Insn{
		{Op: vcode.OpBeq, Rs: strLen, Rt: vcode.RZero},
		insn(vcode.OpMovI, strIdx, 0, 0, int32(i0)),
		insn(vcode.OpLd32X, strWord, strSrc, strIdx, 0),
	}
	ins = append(ins, sh.mid...)
	if sh.out != vcode.RZero {
		ins = append(ins, insn(vcode.OpSt32X, sh.out, strDst, strIdx, 0))
	}
	ins = append(ins, insn(vcode.OpAddIU, strIdx, strIdx, 0, 4),
		vcode.Insn{Op: vcode.OpBltU, Rs: strIdx, Rt: strLen, Target: strHead}, vcode.Insn{Op: vcode.OpRet})
	ins[0].Target = int32(len(ins) - 1)
	return &vcode.Program{Name: "stream " + sh.name, Insns: ins}
}

// streamRun is where one run's streams lie, relative to the 16-KiB memory
// at diffMemBase. engages: with no budget the executor takes part of a
// copy+checksum over it — and with engages unset none of it: a stream that
// is going to leave the memory is not lent, and the whole loop is the
// interpreter's. A dst ahead of src inside the streamed source is not
// copied in bulk until the trips left fit between the two. fill: what the
// source and the checksum accumulator hold.
type streamRun struct {
	name            string
	src, dst, n, i0 uint32
	engages         bool
	fill            streamFill
}

// streamFill is what the checksum accumulator (r10 in every shape that sums)
// and the source hold when a run starts: the seeded registers and memory, or
// an edge of the end-around sum over source words of the fill's choosing.
type streamFill int

const (
	fillSeeded  streamFill = iota
	fillZero               // 0 over all-zero words: the sum stays 0
	fillOnes               // 0xffffffff over 0xffffffff words: a carry every step
	fillModulus            // 0 over words whose total is a multiple of 2^32-1: 0xffffffff, never 0
)

// word is the source word j (from src) of a fill other than fillSeeded.
func (f streamFill) word(j int) uint32 {
	switch f {
	case fillOnes:
		return 0xffffffff
	case fillModulus:
		return 0x80000000 - uint32(j&1) // pairs of 0x80000000 + 0x7fffffff
	}
	return 0
}

const strEnd = diffMemBase + diffMemSize

var streamRuns = []streamRun{
	{name: "one line", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 16, engages: true},
	{name: "segment", src: diffMemBase + 0x40, dst: diffMemBase + 0x2040, n: 3072, engages: true},
	{name: "streams start mid-line", src: diffMemBase + 0x108, dst: diffMemBase + 0x2004, n: 200, engages: true},
	{name: "index starts past zero", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 64, i0: 8, engages: true},
	{name: "length not a multiple of 4", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 22, engages: true},
	{name: "one word", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 4},
	{name: "nothing to do", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000},
	{name: "index at the bound", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 64, i0: 64},
	{name: "index past the bound", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 64, i0: 0x100},
	{name: "src unaligned", src: diffMemBase + 0x102, dst: diffMemBase + 0x2000, n: 64},
	{name: "dst unaligned", src: diffMemBase + 0x100, dst: diffMemBase + 0x2001, n: 64},
	{name: "src runs off the end", src: strEnd - 40, dst: diffMemBase + 0x2000, n: 256},
	{name: "dst runs off the end", src: diffMemBase + 0x100, dst: strEnd - 24, n: 256},
	{name: "src below memory", src: diffMemBase - 8, dst: diffMemBase + 0x2000, n: 64},
	{name: "dst below memory", src: diffMemBase + 0x100, dst: diffMemBase - 16, n: 64},
	{name: "src far outside", src: 0x9000, dst: diffMemBase + 0x2000, n: 64},
	{name: "in place", src: diffMemBase + 0x100, dst: diffMemBase + 0x100, n: 256, engages: true},
	{name: "dst one word ahead", src: diffMemBase + 0x100, dst: diffMemBase + 0x104, n: 256, engages: true},
	{name: "dst one word behind", src: diffMemBase + 0x100, dst: diffMemBase + 0xfc, n: 256, engages: true},
	{name: "dst one line ahead", src: diffMemBase + 0x100, dst: diffMemBase + 0x110, n: 256, engages: true},
	{name: "dst 1 KiB ahead", src: diffMemBase + 0x104, dst: diffMemBase + 0x508, n: 512, engages: true},
	// The executor first tries after one interpreted iteration, over the
	// last n-4 bytes: dst 8 bytes short of the source's end overlaps that by
	// one word (one more iteration is interpreted), 4 bytes short not at all.
	{name: "dst on the last streamed source word", src: diffMemBase + 0x100, dst: diffMemBase + 0x1f8, n: 256, engages: true},
	{name: "dst just past the streamed source", src: diffMemBase + 0x100, dst: diffMemBase + 0x1fc, n: 256, engages: true},
	{name: "zero sum of zero words", src: diffMemBase + 0x104, dst: diffMemBase + 0x2008, n: 512, engages: true, fill: fillZero},
	{name: "all-ones sum", src: diffMemBase + 0x104, dst: diffMemBase + 0x2008, n: 512, engages: true, fill: fillOnes},
	{name: "sum a multiple of 2^32-1", src: diffMemBase + 0x104, dst: diffMemBase + 0x2008, n: 512, engages: true, fill: fillModulus},
	{name: "huge bound", src: diffMemBase + 0x3000, dst: diffMemBase + 0x1000, n: 0xfffffff0},
	// One iteration is streamed before the index wraps to 0; the rest runs off the end.
	{name: "index wraps", src: diffMemBase + 0x3f08, dst: diffMemBase + 0x108, n: 0xffffffff, i0: 0xfffffff8, engages: true},
}

var streamSetups = []diffSetup{
	{name: "no limit"},
	{name: "no cache", noCache: true},
	{name: "PCCounts", pcCounts: true},
	{name: "1-KiB cache", cacheBytes: 1024},
	{name: "Journal", mem: memJournal},
	{name: "AddrSpace", mem: memAddrSpace},
	{name: "Journal over AddrSpace", mem: memJournalAddrSpace, pcCounts: true},
	{name: "Journal over AddrSpace, last page absent", mem: memJournalAddrSpace, absent: true},
	{name: "1 insn", insnBudget: 1},
	{name: "3 insns", insnBudget: 3},
	{name: "8 insns", insnBudget: 8},
	{name: "97 insns", insnBudget: 97},
	{name: "1000 insns, 1-KiB cache", insnBudget: 1000, cacheBytes: 1024},
	{name: "1 cycle", cycleLimit: 1},
	{name: "14 cycles", cycleLimit: 14},
	{name: "333 cycles", cycleLimit: 333},
	{name: "333 cycles, no cache", cycleLimit: 333, noCache: true},
	{name: "2000 cycles, PCCounts", cycleLimit: 2000, pcCounts: true},
	{name: "both limits", insnBudget: 600, cycleLimit: 900, pcCounts: true, cacheBytes: 1024},
	{name: "both limits, Journal over AddrSpace", insnBudget: 600, cycleLimit: 900, mem: memJournalAddrSpace},
}

func seedStream(f *vcode.FlatMem) {
	for i := range f.Data {
		f.Data[i] = byte(i*7 + i>>8)
	}
}

// loadArgs puts the run's streams, moved to where the setup's memory is,
// and its length in the argument registers, and the fill's accumulator in
// r10.
func (run streamRun) loadArgs(s diffSetup, m *vcode.Machine) {
	delta := s.base() - diffMemBase
	m.Regs[strSrc], m.Regs[strDst], m.Regs[strLen] = run.src+delta, run.dst+delta, run.n
	switch run.fill {
	case fillZero, fillModulus:
		m.Regs[10] = 0
	case fillOnes:
		m.Regs[10] = 0xffffffff
	}
}

// seed is seedStream, then the fill's words from src to the end of the run
// or of the memory.
func (run streamRun) seed(f *vcode.FlatMem) {
	seedStream(f)
	if run.fill == fillSeeded {
		return
	}
	for j, at := 0, uint64(run.src); at < uint64(run.src)+uint64(run.n) && at+4 <= strEnd; j, at = j+1, at+4 {
		if at >= diffMemBase {
			binary.BigEndian.PutUint32(f.Data[at-diffMemBase:], run.fill.word(j))
		}
	}
}

// streamSides builds the two machines of one run: every register holds
// something, then the three arguments.
func streamSides(s diffSetup, prog *vcode.Program, run streamRun, warm []uint32) (got, want *diffSide) {
	attach := func(m *vcode.Machine) {
		for j := 1; j < vcode.NumRegs; j++ {
			m.Regs[j] = uint32(j) * 0x9e3779b1
		}
		run.loadArgs(s, m)
		for _, addr := range warm {
			if m.Cache != nil {
				m.Cache.Warm(addr+s.base()-diffMemBase, 4)
			}
		}
	}
	return newDiffSide(s, len(prog.Insns), run.seed, attach), newDiffSide(s, len(prog.Insns), run.seed, attach)
}

// compareStream runs one case twice (the second run starts from the first
// one's registers, cache and counts, and from its memory unless that is
// journaled: then the first run is undone, which must leave the memory as it
// was seeded, however the run ended) and reports the instructions the
// executor ran in the first.
func compareStream(t *testing.T, what string, s diffSetup, prog *vcode.Program, run streamRun, warm []uint32) int64 {
	t.Helper()
	got, want := streamSides(s, prog, run, warm)
	seeded := bytes.Clone(got.flat.Data)
	compare(t, what, got, want, prog)
	streamed := got.m.Streamed
	if streamed < 0 || streamed > got.m.Insns {
		t.Fatalf("%s: Streamed = %d of %d instructions", what, streamed, got.m.Insns)
	}
	for _, d := range []*diffSide{got, want} {
		run.loadArgs(s, d.m)
		if d.journal != nil {
			d.journal.Undo()
			if !bytes.Equal(d.flat.Data, seeded) {
				t.Fatalf("%s: Undo did not restore the memory\n%s", what, prog)
			}
		}
	}
	compare(t, what+", second run", got, want, prog)
	return streamed
}

func TestStreamMatchesReference(t *testing.T) {
	for _, sh := range streamShapes {
		for _, run := range streamRuns {
			prog := streamProgram(sh, run.i0)
			for _, s := range streamSetups {
				what := fmt.Sprintf("%s, %s, %s", sh.name, run.name, s.name)
				streamed := compareStream(t, what, s, prog, run, nil)
				unlimited := s.insnBudget == 0 && s.cycleLimit == 0
				// A source that starts in the absent page faults on the first load.
				engages := sh.streams && run.engages && !(s.absent && run.src >= strEnd-aegis.PageSize)
				if unlimited && (streamed != 0) != engages {
					t.Fatalf("%s: the executor ran %d instructions, engages is %v\n%s", what, streamed, engages, prog)
				}
			}
		}
	}

	// Every place a budget can run out: each instruction count and each
	// cycle count up to what the whole run takes.
	run := streamRun{name: "three lines", src: diffMemBase + 0x108, dst: diffMemBase + 0x2004, n: 48}
	for _, sh := range streamShapes {
		prog := streamProgram(sh, 0)
		whole, _ := streamSides(diffSetup{}, prog, run, nil)
		if f := whole.m.Run(prog); f != nil {
			t.Fatal(f)
		}
		for b := int64(1); b <= whole.m.Insns+1; b++ {
			compareStream(t, fmt.Sprintf("%s, InsnBudget %d", sh.name, b), diffSetup{insnBudget: b, pcCounts: true}, prog, run, nil)
		}
		for c := sim.Time(1); c <= whole.m.Cycles+1; c++ {
			for _, noCache := range []bool{false, true} {
				compareStream(t, fmt.Sprintf("%s, CycleLimit %d, no cache %v", sh.name, c, noCache),
					diffSetup{cycleLimit: c, noCache: noCache}, prog, run, nil)
			}
		}
	}
}

// TestStreamSegmentShare is the acceptance number: of a 3072-byte
// checksum-and-copy, all but the prologue, the first iteration and the ret
// is the executor's.
func TestStreamSegmentShare(t *testing.T) {
	prog := streamProgram(streamShape{mid: []vcode.Insn{insn(vcode.OpCksum32, 10, strWord, 0, 0)}, out: strWord}, 0)
	got, _ := streamSides(diffSetup{}, prog, streamRun{src: diffMemBase + 0x40, dst: diffMemBase + 0x2040, n: 3072}, nil)
	if f := got.m.Run(prog); f != nil {
		t.Fatal(f)
	}
	if want := got.m.Insns - (2 + 5 + 1); got.m.Streamed != want || 100*got.m.Streamed < 99*got.m.Insns {
		t.Fatalf("Streamed = %d of %d instructions, want %d", got.m.Streamed, got.m.Insns, want)
	}
}

// TestStreamMisses are loops one step away from the matched shape. Each
// must be left to the interpreter (Streamed stays 0) and, like everything
// else, run as the reference runs it; an instruction budget ends the ones
// the edit sends astray.
func TestStreamMisses(t *testing.T) {
	body := func(extra ...vcode.Insn) streamShape {
		return streamShape{mid: append([]vcode.Insn{insn(vcode.OpCksum32, 10, strWord, 0, 0)}, extra...), out: strWord}
	}
	// Offsets from the loop's load in body()'s program.
	const ld, st, adv, br = 0, 2, 3, 4
	edit := func(at int, f func(*vcode.Insn)) func(*vcode.Program) {
		return func(p *vcode.Program) { f(&p.Insns[strHead+at]) }
	}
	misses := []struct {
		name  string
		shape streamShape
		edit  func(p *vcode.Program)
	}{
		{name: "body writes the index", shape: body(insn(vcode.OpAddIU, strIdx, strIdx, 0, 0))},
		{name: "body writes the bound", shape: body(insn(vcode.OpOrI, strLen, strLen, 0, 0))},
		{name: "body writes src", shape: body(insn(vcode.OpMov, strSrc, strSrc, 0, 0))},
		{name: "body writes dst", shape: body(insn(vcode.OpAddIU, strDst, strDst, 0, 0))},
		{name: "body divides", shape: body(insn(vcode.OpDivU, 11, strWord, strLen, 0))},
		{name: "body loads", shape: body(insn(vcode.OpLd32, 11, strSrc, 0, 0))},
		{name: "body checks the soft budget", shape: body(insn(vcode.OpChkBudget, 0, 0, 0, 1))},
		{name: "body stages a sandbox address", shape: body(insn(vcode.OpSboxMask, vcode.RSbox, strSrc, 0, 0))},
		{name: "store is not last", shape: streamShape{mid: []vcode.Insn{insn(vcode.OpSt32X, strWord, strDst, strIdx, 0), insn(vcode.OpNop, 0, 0, 0, 0)}}},
		{name: "word is src", shape: body(), edit: edit(ld, func(in *vcode.Insn) { in.Rd = strSrc })},
		{name: "word is the index", shape: body(), edit: edit(ld, func(in *vcode.Insn) { in.Rd = strIdx })},
		{name: "word is the bound", shape: body(), edit: edit(ld, func(in *vcode.Insn) { in.Rd = strLen })},
		{name: "word is dst", shape: body(), edit: edit(ld, func(in *vcode.Insn) { in.Rd = strDst })},
		{name: "src is the index", shape: body(), edit: edit(ld, func(in *vcode.Insn) { in.Rs = strIdx })},
		{name: "load indexed by another register", shape: body(), edit: edit(ld, func(in *vcode.Insn) { in.Rt = vcode.RZero })},
		{name: "dst is the index", shape: body(), edit: edit(st, func(in *vcode.Insn) { in.Rs = strIdx })},
		{name: "store indexed by another register", shape: body(), edit: edit(st, func(in *vcode.Insn) { in.Rt = vcode.RZero })},
		{name: "byte store", shape: body(), edit: edit(st, func(in *vcode.Insn) { in.Op = vcode.OpSt8X })},
		{name: "step of 8", shape: body(), edit: edit(adv, func(in *vcode.Insn) { in.Imm = 8 })},
		{name: "step from another register", shape: body(), edit: edit(adv, func(in *vcode.Insn) { in.Rs = strLen })},
		{name: "step into another register", shape: body(), edit: edit(adv, func(in *vcode.Insn) { in.Rd = 11 })},
		{name: "branch on another register", shape: body(), edit: edit(br, func(in *vcode.Insn) { in.Rs = vcode.RZero })},
		{name: "byte load", shape: body(), edit: edit(ld, func(in *vcode.Insn) { in.Op = vcode.OpLd8X })},
		{name: "branch to the second instruction", shape: body(), edit: edit(br, func(in *vcode.Insn) { in.Target++ })},
	}
	run := streamRun{src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 256}
	for _, miss := range misses {
		prog := streamProgram(miss.shape, 0)
		if miss.edit != nil {
			miss.edit(prog)
		}
		for _, s := range []diffSetup{{insnBudget: 4000}, {insnBudget: 4000, noCache: true, pcCounts: true}} {
			if streamed := compareStream(t, miss.name, s, prog, run, nil); streamed != 0 {
				t.Errorf("%s: the executor ran %d instructions of a loop it must not match\n%s", miss.name, streamed, prog)
			}
		}
	}
}

// TestStreamEnteredMidBody jumps from outside into the body of a matched
// loop. The match is made on the instructions and the registers as they
// are when a taken bltu is reached, so how control got there does not
// matter: the executor engages from the second iteration and the run is
// the reference's. Entered past the load (or the store), an unaligned
// stream reaches that bltu without having faulted: the executor must leave
// it to the interpreter, which faults on it.
func TestStreamEnteredMidBody(t *testing.T) {
	runs := []streamRun{
		{name: "aligned", src: diffMemBase + 0x100, dst: diffMemBase + 0x2000, n: 256, engages: true},
		{name: "src unaligned", src: diffMemBase + 0x101, dst: diffMemBase + 0x2000, n: 256},
		{name: "dst unaligned", src: diffMemBase + 0x100, dst: diffMemBase + 0x2002, n: 256},
	}
	for _, sh := range streamShapes {
		whole := streamProgram(sh, 0)
		for entry := strHead + 1; entry < len(whole.Insns)-1; entry++ {
			prog := whole.Clone()
			prog.Insns[0] = insn(vcode.OpMovI, strIdx, 0, 0, 8)
			prog.Insns[1] = vcode.Insn{Op: vcode.OpJmp, Target: int32(entry)}
			for _, run := range runs {
				for _, s := range []diffSetup{{insnBudget: 4000}, {cycleLimit: 700, pcCounts: true}, {mem: memJournalAddrSpace}} {
					what := fmt.Sprintf("%s entered at %d, %s", sh.name, entry, run.name)
					streamed := compareStream(t, what, s, prog, run, nil)
					if engages := sh.streams && run.engages; (streamed != 0) != engages {
						t.Fatalf("%s: the executor ran %d instructions, engages is %v\n%s", what, streamed, engages, prog)
					}
				}
			}
		}
	}
}

// fuzzCallSyms are the calls FuzzStreamMatchesReference ends a program on:
// an id past every table, a name with no entry, an entry point.
var fuzzCallSyms = []vcode.Sym{1 << 31, vcode.Intern("no such entry"), vcode.Intern("totals")}

// FuzzStreamMatchesReference lets the fuzzer pick the memory, place the
// streams, set the budgets and warm the cache: a byte that is fill (bits
// 7-6), memory kind (5-4) and shape (3-0, modulo the shapes; a value past the
// shapes also puts a call from fuzzCallSyms before the ret), flags (no
// cache, PCCounts, 1-KiB cache, huge bound, last page absent, index start),
// src, dst, length, instruction budget, cycle limit, then two bytes per
// warmed line.
func FuzzStreamMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint32 { // big-endian 16 bits, zeros past the end
			var v uint32
			for i := 0; i < 2; i++ {
				v <<= 8
				if len(data) > 0 {
					v, data = v|uint32(data[0]), data[1:]
				}
			}
			return v
		}
		head := next()
		sh, flags := streamShapes[int(head>>8&15)%len(streamShapes)], head&0xff
		kind, fill := memKind(head>>12&3), streamFill(head>>14)
		const span = diffMemSize + 0x40 // from just below memory to just past it
		run := streamRun{src: diffMemBase - 0x20 + next()%span, dst: diffMemBase - 0x20 + next()%span, n: next() % 0x1400, fill: fill}
		s := diffSetup{noCache: flags&1 != 0, pcCounts: flags&2 != 0, mem: kind, absent: flags&16 != 0}
		if flags&4 != 0 {
			s.cacheBytes = 1024
		}
		if flags&8 != 0 {
			run.n |= 0xffff0000
		}
		run.i0 = 4 * (flags >> 5)
		s.insnBudget, s.cycleLimit = int64(next()), sim.Time(2*next())
		var warm []uint32
		for len(data) > 0 {
			warm = append(warm, diffMemBase+16*(next()%(diffMemSize/16)))
		}
		prog := streamProgram(sh, run.i0)
		if c := int(head>>8&15) - len(streamShapes); c >= 0 {
			// The guard's target, the ret, becomes the call.
			call := vcode.Insn{Op: vcode.OpCall, Sym: fuzzCallSyms[c%len(fuzzCallSyms)]}
			prog.Insns = append(prog.Insns[:len(prog.Insns)-1], call, vcode.Insn{Op: vcode.OpRet})
		}
		if streamed := compareStream(t, sh.name, s, prog, run, warm); streamed != 0 && !sh.streams {
			t.Fatalf("%s: the executor ran %d instructions of a loop it must leave to the interpreter\n%s", sh.name, streamed, prog)
		}
	})
}
