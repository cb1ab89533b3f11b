package sandbox

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ashs/internal/mach"
	"ashs/internal/vcode"
	"ashs/internal/vcode/reopt"
)

// Three-way differential harness: the safety net under the DCG loop.
// For any verifiable program and ANY profile — measured, stale, or
// adversarial — the three instrumentations
//
//	naive      (per-access checks, no optimizer)
//	optimized  (static check optimizer)
//	reoptimized (static optimizer + profile-guided pass)
//
// must be architecturally equivalent: same fault-or-clean outcome per
// message, same registers (minus the sandbox scratch), same region
// memory, same kernel-call side effects, with dynamic instruction counts
// ordered reopt ≤ optimized ≤ naive on clean runs. Confinement to the
// SFI region is absolute for all three, faulting runs included. The
// harness is package code (not _test) so the registry sweep, the fuzz
// targets, and the bench differential cell all drive one oracle.

// DiffBase and DiffLimit bound the harness's SFI region. The crl
// library's canonical flat-memory addresses live inside it.
const (
	DiffBase  = 0x1000
	DiffLimit = 0x4000
)

// diffMemSize is the full flat memory, much larger than the region, so
// escapes land in real (guarded) memory instead of faulting on load.
const diffMemSize = 0x20000

// DiffConfig parameterizes a ThreeWay run.
type DiffConfig struct {
	// Budget selects the time-bounding strategy for all variants.
	Budget BudgetMode
	// Rounds is how many messages each variant handles (default 1).
	Rounds int
	// Msg builds the i'th message, written at DiffBase with RArg0/RArg1
	// pointing at it. Nil runs the program with zeroed arguments.
	Msg func(i int) []byte
	// Setup seeds region memory after the deterministic fill (segment
	// tables and the like), via store(addr, word).
	Setup func(store func(addr, val uint32))
	// InsnBudget starves the software budget when nonzero (default is
	// generous). Starved runs imply ConfinementOnly: the coarse drain
	// legitimately faults at budget levels per-iteration checks survive.
	InsnBudget int64
	// ConfinementOnly skips the equivalence oracle and checks only that
	// no variant escapes the region.
	ConfinementOnly bool
}

// DiffOutcome summarizes a clean three-way run.
type DiffOutcome struct {
	Rounds      int // rounds executed (stops after a faulting round)
	FaultRounds int // 0 or 1: a faulting round ends the run
	// Cumulative dynamic instructions over clean rounds.
	NaiveInsns, OptInsns, ReoptInsns int64
	// Profile is the profile the reoptimized variant was built with —
	// the caller's, or one gathered by a profiled naive pre-pass.
	Profile *reopt.Profile
}

// sendRec is one recorded ash_send: kernel-visible side effects must
// match across variants.
type sendRec struct {
	dst, vc int
	data    []byte
}

// diffVariant is one instrumentation under test.
type diffVariant struct {
	sp    *Program
	m     *vcode.Machine
	flat  *vcode.FlatMem
	guard *escapeGuard
	sends []sendRec
	// msgAddr/msgLen describe the current round's message for the
	// ash_msg_load stub.
	msgLen int
}

// escapeGuard wraps a Memory and latches any request that names a byte
// outside [lo, hi), whether or not the inner memory goes on to lend it.
type escapeGuard struct {
	inner   vcode.Memory
	lo, hi  uint32
	escaped bool
}

func (g *escapeGuard) check(addr uint32, n int) {
	if n != 0 && (addr < g.lo || uint64(addr)+uint64(n) > uint64(g.hi)) {
		g.escaped = true
	}
}

func (g *escapeGuard) Load(addr uint32, n int) ([]byte, error) {
	g.check(addr, n)
	return g.inner.Load(addr, n)
}

func (g *escapeGuard) Store(addr uint32, n int) ([]byte, error) {
	g.check(addr, n)
	return g.inner.Store(addr, n)
}

// newDiffVariant compiles p under pol and prepares its private machine,
// seeded memory, escape guard, and kernel-call stubs.
func newDiffVariant(p *vcode.Program, pol *Policy, cfg *DiffConfig) (*diffVariant, error) {
	sp, err := Sandbox(p, pol)
	if err != nil {
		return nil, err
	}
	// The flat memory starts at address 0: Data[a] is the byte at a. The
	// harness fills and compares the region a word at a time on Data itself.
	v := &diffVariant{sp: sp, flat: vcode.NewFlatMem(0, diffMemSize)}
	for a := uint32(DiffBase); a < DiffLimit; a += 4 {
		binary.BigEndian.PutUint32(v.flat.Data[a:], a*2654435761)
	}
	if cfg.Setup != nil {
		cfg.Setup(func(addr, val uint32) { _ = vcode.Store32(v.flat, addr, val) })
	}
	v.guard = &escapeGuard{inner: v.flat, lo: DiffBase, hi: DiffLimit}
	v.m = vcode.NewMachine(mach.DS5000_240(), v.guard)
	v.m.CycleLimit = 10_000_000 // backstop only
	budget := cfg.InsnBudget
	if budget == 0 {
		budget = 10_000_000
	}
	sp.Attach(v.m, DiffBase, DiffLimit, budget)
	v.m.Syms = diffSyscalls(v)
	return v, nil
}

// diffSyscalls stubs the kernel entry points with region-confined,
// deterministic equivalents that record side effects for comparison.
func diffSyscalls(v *diffVariant) map[string]vcode.SyscallFn {
	inRegion := func(addr uint32, n int) error {
		if n < 0 || uint64(addr)+uint64(n) > DiffLimit || addr < DiffBase {
			return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: addr,
				Msg: "syscall range outside region"}
		}
		return nil
	}
	return map[string]vcode.SyscallFn{
		"ash_send": func(m *vcode.Machine) error {
			addr := m.Regs[vcode.RArg2]
			n := int(m.Regs[vcode.RArg3])
			if err := inRegion(addr, n); err != nil {
				return err
			}
			data, _ := v.flat.Load(addr, n)
			m.Charge(4)
			v.sends = append(v.sends, sendRec{
				dst: int(m.Regs[vcode.RArg0]), vc: int(m.Regs[vcode.RArg1]),
				data: append([]byte(nil), data...),
			})
			return nil
		},
		"ash_copy": func(m *vcode.Machine) error {
			src, dst := m.Regs[vcode.RArg0], m.Regs[vcode.RArg1]
			n := int(m.Regs[vcode.RArg2])
			if err := inRegion(src, n); err != nil {
				return err
			}
			if err := inRegion(dst, n); err != nil {
				return err
			}
			m.Charge(12)
			from, _ := v.flat.Load(src, n)
			to, _ := v.flat.Store(dst, n)
			for i := range to { // a byte at a time, ascending, where they overlap
				to[i] = from[i]
			}
			return nil
		},
		"ash_msg_load": func(m *vcode.Machine) error {
			off := m.Regs[vcode.RArg0]
			if int(off)+4 > v.msgLen {
				return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: off,
					Msg: "beyond message"}
			}
			w, err := vcode.Load32(v.flat, DiffBase+off)
			if err != nil {
				return err
			}
			m.Regs[vcode.RRet] = w
			m.Charge(2)
			return nil
		},
	}
}

// round delivers the i'th message and runs the handler once.
func (v *diffVariant) round(i int, cfg *DiffConfig) *vcode.Fault {
	var msg []byte
	if cfg.Msg != nil {
		msg = cfg.Msg(i)
	}
	copy(v.flat.Data[DiffBase:], msg)
	v.msgLen = len(msg)
	v.m.Regs[vcode.RArg0] = DiffBase
	v.m.Regs[vcode.RArg1] = uint32(len(msg))
	v.m.Regs[vcode.RArg2] = 0
	v.m.Regs[vcode.RArg3] = uint32(i)
	return v.m.Run(v.sp.Code)
}

// GatherProfile runs p under naive instrumentation with per-instruction
// counters over the configured rounds and returns the measured profile
// in original-program coordinates — the honest input to Reoptimize, and
// the default profile for ThreeWay when the caller passes nil.
func GatherProfile(p *vcode.Program, cfg DiffConfig) (*reopt.Profile, error) {
	naive := DefaultPolicy()
	naive.Budget = cfg.Budget
	v, err := newDiffVariant(p, naive, &cfg)
	if err != nil {
		return nil, err
	}
	v.m.PCCounts = make([]uint64, len(v.sp.Code.Insns))
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		if f := v.round(i, &cfg); f != nil {
			break // partial profiles are fine: any profile must be safe
		}
	}
	counts := make([]uint64, len(p.Insns))
	for old, inst := range v.sp.JmpTable {
		if old < len(counts) && inst >= 0 && inst < len(v.m.PCCounts) {
			counts[old] = v.m.PCCounts[inst]
		}
	}
	return &reopt.Profile{
		Handler: p.Name, Invocations: uint64(rounds), Counts: counts,
	}, nil
}

// ThreeWay runs p under all three instrumentations and enforces the
// equivalence oracle, using prof for the reoptimized variant (nil
// gathers one with a profiled naive pre-pass). A non-nil error is a
// divergence — a genuine optimizer bug, never an artifact of the input
// program or profile.
func ThreeWay(p *vcode.Program, prof *reopt.Profile, cfg DiffConfig) (*DiffOutcome, error) {
	if prof == nil {
		var err error
		if prof, err = GatherProfile(p, cfg); err != nil {
			return nil, err
		}
	}
	naive := DefaultPolicy()
	naive.Budget = cfg.Budget
	opt := DefaultPolicy()
	opt.Budget = cfg.Budget
	opt.Optimize = true
	re := DefaultPolicy()
	re.Budget = cfg.Budget
	re.Optimize = true
	re.Profile = prof

	vs := make([]*diffVariant, 3)
	names := [3]string{"naive", "optimized", "reoptimized"}
	for i, pol := range []*Policy{naive, opt, re} {
		v, err := newDiffVariant(p, pol, &cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		vs[i] = v
	}

	out := &DiffOutcome{Profile: prof}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		var faults [3]*vcode.Fault
		for k, v := range vs {
			faults[k] = v.round(i, &cfg)
			if v.guard.escaped {
				return nil, fmt.Errorf("%s escaped the region on round %d\n%s",
					names[k], i, v.sp.Code)
			}
		}
		out.Rounds++
		if cfg.ConfinementOnly {
			continue
		}
		anyFault := faults[0] != nil || faults[1] != nil || faults[2] != nil
		if anyFault {
			for k := 1; k < 3; k++ {
				if (faults[k] != nil) != (faults[0] != nil) {
					return nil, fmt.Errorf(
						"round %d: naive fault=%v but %s fault=%v\n%s",
						i, faults[0], names[k], faults[k], p)
				}
			}
			// A faulting round ends the run: without rollback, partial
			// stores legitimately differ beyond this point.
			out.FaultRounds++
			break
		}
		out.NaiveInsns += vs[0].m.Insns
		out.OptInsns += vs[1].m.Insns
		out.ReoptInsns += vs[2].m.Insns
		if vs[1].m.Insns > vs[0].m.Insns {
			return nil, fmt.Errorf("round %d: optimized ran %d insns, naive %d\n%s",
				i, vs[1].m.Insns, vs[0].m.Insns, p)
		}
		if vs[2].m.Insns > vs[1].m.Insns {
			return nil, fmt.Errorf("round %d: reoptimized ran %d insns, optimized %d\n%s",
				i, vs[2].m.Insns, vs[1].m.Insns, p)
		}
		for r := 0; r < vcode.NumRegs; r++ {
			if vcode.Reg(r) == vcode.RSbox {
				continue // sandbox scratch legitimately differs
			}
			for k := 1; k < 3; k++ {
				if vs[k].m.Regs[r] != vs[0].m.Regs[r] {
					return nil, fmt.Errorf(
						"round %d: r%d naive=%#x %s=%#x\n%s",
						i, r, vs[0].m.Regs[r], names[k], vs[k].m.Regs[r], p)
				}
			}
		}
	}

	if out.FaultRounds == 0 && !cfg.ConfinementOnly {
		for a := uint32(DiffBase); a < DiffLimit; a += 4 {
			v0 := binary.BigEndian.Uint32(vs[0].flat.Data[a:])
			for k := 1; k < 3; k++ {
				vk := binary.BigEndian.Uint32(vs[k].flat.Data[a:])
				if vk != v0 {
					return nil, fmt.Errorf("mem[%#x]: naive=%#x %s=%#x\n%s",
						a, v0, names[k], vk, p)
				}
			}
		}
		for k := 1; k < 3; k++ {
			if err := sameSends(vs[0].sends, vs[k].sends, names[k]); err != nil {
				return nil, fmt.Errorf("%w\n%s", err, p)
			}
		}
	}
	return out, nil
}

func sameSends(a, b []sendRec, name string) error {
	if len(a) != len(b) {
		return fmt.Errorf("naive sent %d messages, %s sent %d", len(a), name, len(b))
	}
	for i := range a {
		if a[i].dst != b[i].dst || a[i].vc != b[i].vc || !bytes.Equal(a[i].data, b[i].data) {
			return fmt.Errorf("send %d differs: naive=%+v %s=%+v", i, a[i], name, b[i])
		}
	}
	return nil
}
