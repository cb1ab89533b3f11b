package reopt

import (
	"strings"
	"testing"

	"ashs/internal/mach"
	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

func TestProfileCountAndHot(t *testing.T) {
	var nilProf *Profile
	if nilProf.Count(0) != 0 || nilProf.Hot(0) {
		t.Fatal("nil profile must read as all-cold")
	}
	p := &Profile{Counts: []uint64{0, HotTrips - 1, HotTrips, 1 << 40}}
	for pc, want := range map[int]bool{-1: false, 0: false, 1: false, 2: true, 3: true, 4: false, 99: false} {
		if p.Hot(pc) != want {
			t.Errorf("Hot(%d) = %v, want %v", pc, p.Hot(pc), want)
		}
	}
}

func TestProfileFingerprint(t *testing.T) {
	a := &Profile{Invocations: 3, Counts: []uint64{1, 2, 3}}
	b := &Profile{Invocations: 3, Counts: []uint64{1, 2, 3}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical profiles fingerprint differently")
	}
	// Each differs from a in exactly one field, and the last from the
	// others in the chunk boundary its counts cross.
	long := func(n int, last uint64) *Profile {
		c := make([]uint64, n)
		for i := range c {
			c[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		c[n-1] = last
		return &Profile{Invocations: 3, Counts: c}
	}
	distinct := []*Profile{
		a,
		{Invocations: 4, Counts: []uint64{1, 2, 3}},       // invocations folded
		{Invocations: 3 << 60, Counts: []uint64{1, 2, 3}}, // its high bytes too
		{Invocations: 3, Counts: []uint64{1, 2, 4}},       // counts folded
		{Invocations: 3, Counts: []uint64{1 << 63, 2, 3}}, // a count's high byte
		{Invocations: 3, Counts: []uint64{1, 2}},          // length folded
		{Invocations: 3, Counts: []uint64{1, 2, 3, 0}},    // a zero count is a count
		{Invocations: 3, Counts: nil},
		{Invocations: 0, Counts: nil}, // a profile, unlike nil
		nil,
		long(62, 1), long(62, 2), long(63, 1), long(64, 1), long(65, 1), long(200, 1), long(200, 2),
	}
	seen := map[[32]byte]int{}
	for i, p := range distinct {
		fp := p.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Fatalf("profiles %d and %d collide", i, j)
		}
		seen[fp] = i
	}
	// Counts that cross chunk boundaries fingerprint as their content does.
	for _, n := range []int{62, 63, 64, 65, 200} {
		if long(n, 7).Fingerprint() != long(n, 7).Fingerprint() {
			t.Errorf("two profiles of %d equal counts fingerprint differently", n)
		}
	}
	// The chunk is on the stack: a compile-cache key allocates nothing.
	if p := long(200, 7); testing.AllocsPerRun(100, func() { p.Fingerprint() }) != 0 {
		t.Error("Fingerprint of 200 counts allocates")
	}
	// A nil profile's fingerprint is stable (the compile cache hashes it).
	var nilProf *Profile
	if nilProf.Fingerprint() != nilProf.Fingerprint() {
		t.Fatal("nil fingerprint not stable")
	}
}

// --------------------------------------------------------------------
// Multi-block trip counts
// --------------------------------------------------------------------

// The profile-guided budget coarsening relies on analysis.TripBound
// proving exact counts for multi-block loops; these pin the sparse-record
// shape it must accept and the shapes it must refuse.

// multiBlockLoop builds the sparse-record shape: header with a skip
// branch, conditional body, single latch that is also the only exit.
func multiBlockLoop() *vcode.Program {
	b := vcode.NewBuilder("sparse")
	dst, i, n, v := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(dst, 0x2000)
	b.MovI(i, 0)
	b.MovI(n, 40)
	top, skip := b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.Ld32X(v, vcode.RArg0, i)
	b.Beq(v, vcode.RZero, skip)
	b.St32X(dst, i, v)
	b.Bind(skip)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

func TestTripBoundMultiBlockExact(t *testing.T) {
	p := multiBlockLoop()
	c := analysis.Build(p)
	d := c.Dominators()
	loops := c.NaturalLoops(d)
	if len(loops) != 1 {
		t.Fatalf("expected 1 loop, found %d\n%s", len(loops), p)
	}
	if len(loops[0].Blocks) < 2 {
		t.Fatalf("loop has %d blocks, want a multi-block loop\n%s", len(loops[0].Blocks), p)
	}
	trips, ok := c.TripBound(&loops[0], d, c.Ranges())
	if !ok || trips != 10 {
		t.Fatalf("trips = %d, %v; want 10, true", trips, ok)
	}
}

func TestTripBoundMultiBlockRejections(t *testing.T) {
	cases := map[string]func(b *vcode.Builder){
		// A second exit (break out of the body): the latch-drain total
		// would overcharge short runs.
		"early-exit": func(b *vcode.Builder) {
			i, n, v := b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top, out := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.Ld32X(v, vcode.RArg0, i)
			b.Beq(v, vcode.RZero, out) // jumps past the latch
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
			b.Bind(out)
			b.MovI(vcode.RRet, 0)
			b.Ret()
		},
		// Bound loaded from memory: entry value inexact.
		"unknown-bound": func(b *vcode.Builder) {
			i, n := b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.Ld32(n, vcode.RArg0, 0)
			top := b.NewLabel()
			b.Bind(top)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
			b.Ret()
		},
		// Two increments of the counter: step is path-dependent.
		"double-step": func(b *vcode.Builder) {
			i, n, v := b.Temp(), b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top, skip := b.NewLabel(), b.NewLabel()
			b.Bind(top)
			b.Ld32X(v, vcode.RArg0, i)
			b.Beq(v, vcode.RZero, skip)
			b.AddIU(i, i, 4)
			b.Bind(skip)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
			b.Ret()
		},
		// Bound redefined inside the loop.
		"moving-bound": func(b *vcode.Builder) {
			i, n := b.Temp(), b.Temp()
			b.MovI(i, 0)
			b.MovI(n, 40)
			top := b.NewLabel()
			b.Bind(top)
			b.AddIU(n, n, 0)
			b.AddIU(i, i, 4)
			b.BltU(i, n, top)
			b.Ret()
		},
	}
	for name, build := range cases {
		b := vcode.NewBuilder(name)
		build(b)
		p := b.MustAssemble()
		c := analysis.Build(p)
		d := c.Dominators()
		rng := c.Ranges()
		for _, l := range c.NaturalLoops(d) {
			l := l
			if trips, ok := c.TripBound(&l, d, rng); ok {
				t.Errorf("%s: accepted with trips=%d\n%s", name, trips, p)
			}
		}
	}
}

// --------------------------------------------------------------------
// Chain fusion
// --------------------------------------------------------------------

func headProgram(magicAddr uint32) *vcode.Program {
	b := vcode.NewBuilder("head")
	v, w := b.Temp(), b.Temp()
	b.Ld32(v, vcode.RArg0, 0)
	b.MovI(w, 99)
	bad := b.NewLabel()
	b.Bne(v, w, bad)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	b.Bind(bad)
	b.MovI(vcode.RRet, 1)
	b.Ret()
	return b.MustAssemble()
}

func followerProgram(counterAddr uint32) *vcode.Program {
	b := vcode.NewBuilder("follower")
	c, v := b.Temp(), b.Temp()
	b.MovI(c, int32(counterAddr))
	b.Ld32(v, c, 0)
	b.AddIU(v, v, 1)
	b.St32(c, 0, v)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

func runOn(t *testing.T, p *vcode.Program, arg0 uint32, mem *vcode.FlatMem) *vcode.Machine {
	t.Helper()
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	m.CycleLimit = 100000
	m.Regs[vcode.RArg0] = arg0
	if f := m.Run(p); f != nil {
		t.Fatalf("fault running %s: %v", p.Name, f)
	}
	return m
}

func TestFuseChainSemantics(t *testing.T) {
	const counter = 0x200
	fused, err := FuseChain("fused", headProgram(0x100), followerProgram(counter))
	if err != nil {
		t.Fatal(err)
	}

	// Accepted message: head passes, follower bumps the counter, RRet=0.
	mem := vcode.NewFlatMem(0, 0x1000)
	_ = vcode.Store32(mem, 0x100, 99)
	m := runOn(t, fused, 0x100, mem)
	if m.Regs[vcode.RRet] != 0 {
		t.Fatalf("accepted chain returned %d", m.Regs[vcode.RRet])
	}
	if v, _ := vcode.Load32(mem, counter); v != 1 {
		t.Fatalf("counter = %d after accepted chain, want 1", v)
	}

	// Rejected message: seam exits with the head's RRet, follower skipped.
	mem2 := vcode.NewFlatMem(0, 0x1000)
	_ = vcode.Store32(mem2, 0x100, 7)
	m2 := runOn(t, fused, 0x100, mem2)
	if m2.Regs[vcode.RRet] != 1 {
		t.Fatalf("rejected chain returned %d, want the head's 1", m2.Regs[vcode.RRet])
	}
	if v, _ := vcode.Load32(mem2, counter); v != 0 {
		t.Fatalf("follower ran after seam exit: counter = %d", v)
	}
}

func TestFuseChainRestoresArgRegisters(t *testing.T) {
	// A head that clobbers RArg0 must not corrupt the follower's view of
	// the message: the seam restores the shadowed argument registers.
	b := vcode.NewBuilder("clobber-head")
	b.MovI(vcode.RArg0, 0x7777)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	head := b.MustAssemble()

	b2 := vcode.NewBuilder("arg-reader")
	v := b2.Temp()
	b2.Ld32(v, vcode.RArg0, 0)
	b2.St32(vcode.RArg0, 4, v)
	b2.MovI(vcode.RRet, 0)
	b2.Ret()
	follower := b2.MustAssemble()

	fused, err := FuseChain("restore", head, follower)
	if err != nil {
		t.Fatal(err)
	}
	mem := vcode.NewFlatMem(0, 0x10000)
	_ = vcode.Store32(mem, 0x300, 0xabcd)
	runOn(t, fused, 0x300, mem)
	if v, _ := vcode.Load32(mem, 0x304); v != 0xabcd {
		t.Fatalf("follower read through clobbered RArg0: stored %#x", v)
	}
}

func TestFuseChainLegality(t *testing.T) {
	head := headProgram(0x100)

	// Follower consuming the incoming RRet: the seam's branch would feed
	// it the head's status, changing semantics. Must refuse.
	b := vcode.NewBuilder("ret-reader")
	b.AddIU(vcode.RRet, vcode.RRet, 1)
	b.Ret()
	retReader := b.MustAssemble()
	if _, err := FuseChain("bad", head, retReader); err == nil ||
		!strings.Contains(err.Error(), "RRet") {
		t.Fatalf("RRet-live-in follower accepted (err=%v)", err)
	}

	// Indirect jumps: renamed targets can't be proven. Must refuse.
	b2 := vcode.NewBuilder("jmpr")
	r := b2.Temp()
	b2.MovI(r, 0)
	b2.JmpR(r)
	jr := b2.MustAssemble()
	if _, err := FuseChain("bad", head, jr); err == nil {
		t.Fatal("indirect-jump member accepted")
	}

	// Fewer than two members is not a chain.
	if _, err := FuseChain("solo", head); err == nil {
		t.Fatal("single-member fusion accepted")
	}

	// Register exhaustion: members whose combined register demand
	// exceeds the file must be refused, not silently corrupted.
	wide := func(name string) *vcode.Program {
		bw := vcode.NewBuilder(name)
		regs := make([]vcode.Reg, 18)
		for i := range regs {
			regs[i] = bw.Temp()
			bw.MovI(regs[i], int32(i))
		}
		acc := regs[0]
		for _, r := range regs[1:] {
			bw.AddU(acc, acc, r)
		}
		bw.Mov(vcode.RRet, vcode.RZero)
		bw.Ret()
		return bw.MustAssemble()
	}
	if _, err := FuseChain("too-wide", wide("w1"), wide("w2"), wide("w3")); err == nil {
		t.Fatal("register-exhausting fusion accepted")
	}
}
