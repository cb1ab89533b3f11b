package sandbox

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"ashs/internal/aegis"
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
//
// The region is handled as a block: every variant's is seeded by one copy
// of a fill computed once (diffFill), and the final compare is bytes.Equal
// of each variant's region against the naive one; only a region that
// differs is walked a word at a time, to name the first differing address
// and variant.

// DiffBase and DiffLimit bound the harness's SFI region. The crl
// library's canonical flat-memory addresses live inside it.
const (
	DiffBase  = 0x1000
	DiffLimit = 0x4000
)

// diffFill is the region's deterministic seed, the big-endian word
// a*2654435761 at each address a. It is computed once; newDiffVariant copies
// it over every variant's region.
var diffFill = func() (f [DiffLimit - DiffBase]byte) {
	for a := uint32(DiffBase); a < DiffLimit; a += 4 {
		binary.BigEndian.PutUint32(f[a-DiffBase:], a*2654435761)
	}
	return f
}()

// diffMemSize is the flat memory, [0, DiffLimit): the region and what lies
// below it. An access beyond it faults, and that hides no escape: the
// escape guard latches any request outside the region before the memory
// answers it, and ThreeWay reads the latch before it compares faults.
const diffMemSize = DiffLimit

// diffMems is the harness's free list of flat memories: GatherProfile makes
// one variant and ThreeWay three, and each returns its memories on every
// exit path, so a warm sweep allocates none. A returned memory is zeroed
// below DiffBase and newDiffVariant refills the region, so a leased memory
// is byte-equal to a fresh one. The list is explicit rather than a
// sync.Pool: a pool the collector may empty would make the bytes a run
// allocates follow collector timing.
var diffMems struct {
	sync.Mutex
	free []*vcode.FlatMem
}

// leaseDiffMem takes a memory off the free list, or makes one.
func leaseDiffMem() *vcode.FlatMem {
	diffMems.Lock()
	defer diffMems.Unlock()
	n := len(diffMems.free)
	if n == 0 {
		return vcode.NewFlatMem(0, diffMemSize)
	}
	m := diffMems.free[n-1]
	diffMems.free = diffMems.free[:n-1]
	return m
}

// release returns v's memory to the free list; v must not run again.
func (v *diffVariant) release() {
	clear(v.flat.Data[:DiffBase])
	diffMems.Lock()
	diffMems.free = append(diffMems.free, v.flat)
	diffMems.Unlock()
	v.flat, v.region = nil, nil
}

// DiffConfig parameterizes a ThreeWay run.
type DiffConfig struct {
	// Budget selects the time-bounding strategy for all variants.
	Budget BudgetMode
	// Rounds is how many messages each variant handles (default 1).
	Rounds int
	// Msg builds the i'th message, written at DiffBase with RArg0/RArg1
	// pointing at it; one longer than the region is an error. Nil runs
	// the program with zeroed arguments.
	Msg func(i int) []byte
	// Setup seeds region memory after the deterministic fill (segment
	// tables and the like), via store(addr, word); a word outside the
	// region is an error.
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

// diffVariant is one instrumentation under test, and the Host its entry
// points run over: ranges are checked against the region alone, so an
// out-of-region range faults as it does against production's journal, and
// the escape guard sees only the handler's own accesses; the message is at
// DiffBase; sends are logged; there are no engines.
type diffVariant struct {
	sp     *Program
	m      *vcode.Machine
	flat   *vcode.FlatMem
	region *vcode.FlatMem // [DiffBase, DiffLimit) of flat
	guard  *escapeGuard
	sends  []sendRec
	msgLen int // the current round's message length
}

func (v *diffVariant) Ranges(*vcode.Machine) vcode.Memory { return v.region }

func (v *diffVariant) Msg() aegis.Frame { return aegis.ContiguousFrame(v.region, DiffBase, v.msgLen) }

func (v *diffVariant) Send(dst, vc int, data []byte) {
	v.sends = append(v.sends, sendRec{dst: dst, vc: vc, data: append([]byte(nil), data...)})
}

func (v *diffVariant) DILP(*vcode.Machine, int, uint32, uint32, int) (uint32, error) {
	return 0, &vcode.Fault{Kind: vcode.FaultBadCall, Msg: "no such engine"}
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
// seeded memory (leased: the caller releases the variant), escape guard,
// and entry points.
func newDiffVariant(p *vcode.Program, pol *Policy, cfg *DiffConfig) (*diffVariant, error) {
	sp, err := Sandbox(p, pol)
	if err != nil {
		return nil, err
	}
	// The flat memory starts at address 0: Data[a] is the byte at a.
	v := &diffVariant{sp: sp, flat: leaseDiffMem()}
	v.region = &vcode.FlatMem{Base: DiffBase, Data: v.flat.Data[DiffBase:DiffLimit:DiffLimit]}
	copy(v.region.Data, diffFill[:])
	if cfg.Setup != nil {
		cfg.Setup(func(addr, val uint32) {
			if err != nil {
				return
			}
			if addr < DiffBase || uint64(addr)+4 > DiffLimit {
				err = fmt.Errorf("sandbox: setup store at %#x is outside the region [%#x, %#x)", addr, DiffBase, DiffLimit)
				return
			}
			err = vcode.Store32(v.flat, addr, val)
		})
		if err != nil {
			v.release()
			return nil, err
		}
	}
	v.guard = &escapeGuard{inner: v.flat, lo: DiffBase, hi: DiffLimit}
	v.m = vcode.NewMachine(mach.DS5000_240(), v.guard)
	v.m.CycleLimit = 10_000_000 // backstop only
	budget := cfg.InsnBudget
	if budget == 0 {
		budget = 10_000_000
	}
	sp.Attach(v.m, DiffBase, DiffLimit, budget)
	v.m.Syms = EntryPoints(v)
	return v, nil
}

// round delivers the i'th message and runs the handler once. A message the
// region cannot hold is an error in the input, not a handler fault.
func (v *diffVariant) round(i int, cfg *DiffConfig) (*vcode.Fault, error) {
	var msg []byte
	if cfg.Msg != nil {
		msg = cfg.Msg(i)
	}
	if len(msg) > DiffLimit-DiffBase {
		return nil, fmt.Errorf("sandbox: message %d is %d bytes; the region holds %d", i, len(msg), DiffLimit-DiffBase)
	}
	copy(v.flat.Data[DiffBase:], msg)
	v.msgLen = len(msg)
	v.m.Regs[vcode.RArg0] = DiffBase
	v.m.Regs[vcode.RArg1] = uint32(len(msg))
	v.m.Regs[vcode.RArg2] = 0
	v.m.Regs[vcode.RArg3] = uint32(i)
	return v.m.Run(v.sp.Code), nil
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
	defer v.release()
	v.m.PCCounts = make([]uint64, len(v.sp.Code.Insns))
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		f, err := v.round(i, &cfg)
		if err != nil {
			return nil, err
		}
		if f != nil {
			break // partial profiles are fine: any profile must be safe
		}
	}
	return &reopt.Profile{
		Handler: p.Name, Invocations: uint64(rounds), Counts: v.sp.OrigCounts(v.m.PCCounts),
	}, nil
}

// threeWayNames names ThreeWay's builds, in the order threeWayPolicies
// makes their policies.
var threeWayNames = [3]string{"naive", "optimized", "reoptimized"}

// threeWayPolicies are the policies of ThreeWay's three builds under
// budget: naive, optimized, and reoptimized under prof.
func threeWayPolicies(budget BudgetMode, prof *reopt.Profile) [3]*Policy {
	naive := DefaultPolicy()
	naive.Budget = budget
	opt := *naive
	opt.Optimize = true
	re := opt
	re.Profile = prof
	return [3]*Policy{naive, &opt, &re}
}

// ThreeWay runs p under all three instrumentations and enforces the
// equivalence oracle, using prof for the reoptimized variant (nil
// gathers one with a profiled naive pre-pass). A non-nil error is a
// divergence — a genuine optimizer bug, never an artifact of the input
// program or profile — unless it says the program does not verify or the
// configuration puts a message or setup word outside the region.
func ThreeWay(p *vcode.Program, prof *reopt.Profile, cfg DiffConfig) (*DiffOutcome, error) {
	if prof == nil {
		var err error
		if prof, err = GatherProfile(p, cfg); err != nil {
			return nil, err
		}
	}
	var vs [3]*diffVariant
	defer func() {
		for _, v := range vs {
			if v != nil {
				v.release()
			}
		}
	}()
	for i, pol := range threeWayPolicies(cfg.Budget, prof) {
		v, err := newDiffVariant(p, pol, &cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", threeWayNames[i], err)
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
			var err error
			if faults[k], err = v.round(i, &cfg); err != nil {
				return nil, err
			}
			if v.guard.escaped {
				return nil, fmt.Errorf("%s escaped the region on round %d\n%s",
					threeWayNames[k], i, v.sp.Code)
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
						i, faults[0], threeWayNames[k], faults[k], p)
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
						i, r, vs[0].m.Regs[r], threeWayNames[k], vs[k].m.Regs[r], p)
				}
			}
		}
	}

	if out.FaultRounds == 0 && !cfg.ConfinementOnly {
		if !bytes.Equal(vs[1].region.Data, vs[0].region.Data) || !bytes.Equal(vs[2].region.Data, vs[0].region.Data) {
			// Name the first differing word, in address order, and its variant.
			for a := uint32(DiffBase); a < DiffLimit; a += 4 {
				v0 := binary.BigEndian.Uint32(vs[0].flat.Data[a:])
				for k := 1; k < 3; k++ {
					vk := binary.BigEndian.Uint32(vs[k].flat.Data[a:])
					if vk != v0 {
						return nil, fmt.Errorf("mem[%#x]: naive=%#x %s=%#x\n%s",
							a, v0, threeWayNames[k], vk, p)
					}
				}
			}
		}
		for k := 1; k < 3; k++ {
			if err := sameSends(vs[0].sends, vs[k].sends, threeWayNames[k]); err != nil {
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
