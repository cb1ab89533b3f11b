package vcode_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ashs/internal/crl"
	"ashs/internal/mach"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// The differential tests run one program on two identically prepared
// machines — Machine.Run and RunReference, the loop it replaced — and
// require the same fault (kind, pc, addr, message), Cycles, Insns,
// registers, memory, cache statistics and PCCounts.

const (
	diffMemBase = 0x1000
	diffMemSize = 0x4000
)

// diffSetup is one machine configuration both sides are built with.
type diffSetup struct {
	name       string
	insnBudget int64
	cycleLimit sim.Time
	softBudget int64
	pcCounts   bool
	journal    bool // memory is a Journal over the FlatMem
	noCache    bool
}

var diffSetups = []diffSetup{
	{name: "no limit"},
	{name: "no cache", noCache: true},
	{name: "InsnBudget", insnBudget: 97},
	{name: "CycleLimit", cycleLimit: 333},
	{name: "SoftBudget", softBudget: 40},
	{name: "PCCounts", pcCounts: true},
	{name: "Journal", journal: true},
	{name: "everything", insnBudget: 5000, cycleLimit: 9000, softBudget: 900, pcCounts: true, journal: true},
}

// diffSide is one of the two machines of a comparison.
type diffSide struct {
	m    *vcode.Machine
	flat *vcode.FlatMem
}

func newDiffSide(s diffSetup, codeLen int, seed func(*vcode.FlatMem), attach func(*vcode.Machine)) *diffSide {
	d := &diffSide{flat: vcode.NewFlatMem(diffMemBase, diffMemSize)}
	seed(d.flat)
	var mem vcode.Memory = d.flat
	if s.journal {
		mem = vcode.NewJournal(d.flat)
	}
	prof := mach.DS5000_240()
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
func diffSyms(d *diffSide) map[string]vcode.SyscallFn {
	inMem := func(addr uint32, n int) error {
		if addr < diffMemBase || uint64(addr)+uint64(n) > diffMemBase+diffMemSize {
			return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: addr, Msg: "syscall range"}
		}
		return nil
	}
	return map[string]vcode.SyscallFn{
		"charge": func(m *vcode.Machine) error {
			m.Charge(sim.Time(m.Regs[vcode.RArg0] & 0xff))
			m.ChargeInsns(int64(m.Regs[vcode.RArg1] & 7))
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
			w, err := d.flat.Load32(crl.LibSegBase + 0x800 + m.Regs[vcode.RArg0])
			if err != nil {
				return err
			}
			m.Regs[vcode.RRet] = w
			m.Charge(2)
			return nil
		},
	}
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
}

// randomProgram builds a program out of every opcode the interpreter
// knows (and one it does not). Registers r1..r7 hold data, r8..r11
// addresses that are mostly inside memory, mostly aligned. With loops,
// branches go both ways and most programs end on a budget, a fault or by
// running off the end rather than on their Ret; without (for machines
// that have no instruction or cycle limit to stop them) every jump is
// forward.
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
	syms := []string{"charge", "charge", "totals", "totals", "fault", "error", "no such entry"}
	for len(ins) < n {
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
			in.Op, in.Target = branch[r.Intn(len(branch))], r.Intn(n+2)
			if !loops {
				in.Target = len(ins) + 1 + r.Intn(n)
			}
		case k < 18:
			in.Op = vcode.OpChkBudget
		case k < 19:
			in.Op, in.Sym = vcode.OpCall, syms[r.Intn(len(syms))]
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

func TestRunMatchesReferenceOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	seed := func(f *vcode.FlatMem) {
		for i := range f.Data {
			f.Data[i] = byte(i * 7)
		}
	}
	ends := map[string]int{}
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
		ends[describeEnd(got.m.Run(prog))]++
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
						if err := f.Store32(addr, val); err != nil {
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
