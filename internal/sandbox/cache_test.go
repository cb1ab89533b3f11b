package sandbox

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ashs/internal/vcode"
	"ashs/internal/vcode/reopt"
)

// memProgram builds a small handler with loads and stores so the SFI
// instrumenter has real work to memoize.
func memProgram(t *testing.T) *vcode.Program {
	return assemble(t, func(b *vcode.Builder) {
		r, v := b.Temp(), b.Temp()
		b.MovI(r, 64)
		b.MovI(v, 7)
		b.St32(r, 0, v)
		b.St32(r, 4, v)
		b.Ld32(vcode.RRet, r, 0)
		b.Ret()
	})
}

// TestCompileCacheHitMatchesMiss: a build is compiled once and shared. A
// hit carries the caller's policy pointer in a Program of its own, shares
// the code and jump table of every earlier download, and is what a fresh
// compile makes.
func TestCompileCacheHitMatchesMiss(t *testing.T) {
	ResetCache()
	pol := DefaultPolicy()
	p := memProgram(t)

	sp1, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	pol2 := DefaultPolicy()
	sp2, err := Sandbox(p, pol2)
	if err != nil {
		t.Fatal(err)
	}
	sp3, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	// The miss counts once for the build and once for its verification.
	if hits, misses := CacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("stats after a miss and two hits: hits=%d misses=%d, want 2 and 2", hits, misses)
	}
	if sp1.Policy != pol || sp2.Policy != pol2 || sp3.Policy != pol {
		t.Fatal("a build does not carry its caller's policy pointer")
	}
	if sp1 == sp2 || sp1 == sp3 || sp2 == sp3 {
		t.Fatal("two downloads share one Program struct")
	}
	for _, sp := range []*Program{sp2, sp3} {
		if &sp.Code.Insns[0] != &sp1.Code.Insns[0] || &sp.Orig.Insns[0] != &sp1.Orig.Insns[0] ||
			&sp.JmpTable[0] != &sp1.JmpTable[0] {
			t.Fatal("a cache hit copied the build instead of sharing it")
		}
	}
	fresh, err := compile(p, pol2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp2, fresh) {
		t.Fatalf("cache hit differs from a fresh compile:\n%+v\n%+v", sp2, fresh)
	}

	// A caller may replace the fields of its own Program; later hits must
	// be unaffected.
	sp2.Code, sp2.JmpTable, sp2.Policy = nil, nil, nil
	sp4, err := Sandbox(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp4, sp1) {
		t.Fatal("replacing a field of a returned build changed the cache")
	}
}

// TestCacheHitCostIsFlat: a hit hashes the program and hands out a small
// struct; it copies nothing, so it costs the same on a handler a hundred
// times longer. (The mallocs alone would not see a deep copy: one append
// is one malloc at any length. The bytes do.)
func TestCacheHitCostIsFlat(t *testing.T) {
	ResetCache()
	pol := DefaultPolicy()
	straight := func(n int) *vcode.Program {
		return assemble(t, func(b *vcode.Builder) {
			r := b.Temp()
			for i := 0; i < n-1; i++ { // and the Ret Assemble appends
				b.AddIU(r, r, 1)
			}
		})
	}
	type cost struct{ allocs, bytes float64 }
	hitCost := func(p *vcode.Program) cost {
		hit := func() {
			if _, err := Sandbox(p, pol); err != nil {
				t.Fatal(err)
			}
		}
		hit() // the miss
		const runs = 200
		allocs := testing.AllocsPerRun(runs, hit)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			hit()
		}
		runtime.ReadMemStats(&m1)
		return cost{allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs}
	}
	small, large := straight(8), straight(800)
	if len(small.Insns) != 8 || len(large.Insns) != 800 {
		t.Fatalf("programs of %d and %d instructions, want 8 and 800", len(small.Insns), len(large.Insns))
	}
	cs, cl := hitCost(small), hitCost(large)
	// A few bytes of slack for whatever else the runtime allocated meanwhile;
	// copying 800 instructions would cost tens of KiB.
	if cs.allocs != cl.allocs || cl.bytes > cs.bytes+64 {
		t.Fatalf("a hit on 8 instructions costs %v allocs, %.0f B; on 800, %v allocs, %.0f B",
			cs.allocs, cs.bytes, cl.allocs, cl.bytes)
	}
}

func TestCacheDistinguishesPolicies(t *testing.T) {
	ResetCache()
	p := memProgram(t)
	naive := DefaultPolicy()
	opt := DefaultPolicy()
	opt.Optimize = true

	spNaive, err := Sandbox(p, naive)
	if err != nil {
		t.Fatal(err)
	}
	spOpt, err := Sandbox(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(spNaive.Code.Insns, spOpt.Code.Insns) {
		t.Fatal("distinct policies produced identical instrumentation — key collision?")
	}
	_, misses := CacheStats()
	if misses < 2 {
		t.Fatalf("expected two compile misses, got %d", misses)
	}

	// x86 policy differs only in the Hardware field.
	x86 := DefaultPolicy()
	x86.Hardware = HardwareX86
	spX86, err := Sandbox(p, x86)
	if err != nil {
		t.Fatal(err)
	}
	if spX86.AddedStatic != 0 || spX86.AddedStatic == spNaive.AddedStatic {
		t.Fatalf("x86 build added %d instructions (MIPS added %d)",
			spX86.AddedStatic, spNaive.AddedStatic)
	}
}

func TestCacheDistinguishesProfiles(t *testing.T) {
	ResetCache()
	// A loop with a message-dependent divide: exactly the shape where an
	// attached profile changes the emitted instrumentation.
	p := crlShardShape(t)
	base := DefaultPolicy()
	base.Optimize = true

	spStatic, err := Sandbox(p, base)
	if err != nil {
		t.Fatal(err)
	}

	hot := make([]uint64, len(p.Insns))
	for i := range hot {
		hot[i] = reopt.HotTrips * 4
	}
	withHot := DefaultPolicy()
	withHot.Optimize = true
	withHot.Profile = &reopt.Profile{Handler: p.Name, Invocations: 4, Counts: hot}

	spHot, err := Sandbox(p, withHot)
	if err != nil {
		t.Fatal(err)
	}
	_, misses := CacheStats()
	if misses < 2 {
		t.Fatalf("same program under a different profile hit the cache (misses=%d)", misses)
	}
	if reflect.DeepEqual(spStatic.Code.Insns, spHot.Code.Insns) {
		t.Fatal("hot profile changed nothing — the keying test has lost its teeth")
	}

	// Same profile contents under a fresh policy pointer: must hit, and
	// the hit must carry the caller's pointer, not the cached one.
	again := DefaultPolicy()
	again.Optimize = true
	again.Profile = &reopt.Profile{Handler: p.Name, Invocations: 4,
		Counts: append([]uint64(nil), hot...)}
	hitsBefore, _ := CacheStats()
	spAgain, err := Sandbox(p, again)
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := CacheStats()
	if hitsAfter == hitsBefore {
		t.Fatal("identical profile contents missed the cache")
	}
	if spAgain.Policy != again {
		t.Fatal("cached build does not carry the caller's policy pointer")
	}
	if !reflect.DeepEqual(spAgain.Code.Insns, spHot.Code.Insns) {
		t.Fatal("cache hit returned different code than the original build")
	}

	// Different counts, same length: different fingerprint, fresh build.
	cold := make([]uint64, len(p.Insns))
	withCold := DefaultPolicy()
	withCold.Optimize = true
	withCold.Profile = &reopt.Profile{Handler: p.Name, Invocations: 4, Counts: cold}
	_, missesBefore := CacheStats()
	if _, err := Sandbox(p, withCold); err != nil {
		t.Fatal(err)
	}
	if _, missesNow := CacheStats(); missesNow == missesBefore {
		t.Fatal("cold profile reused the hot profile's build")
	}
}

// crlShardShape mirrors the shard-counter handler's loop: a
// loop-invariant, message-carried divisor the static pass must check
// every iteration but a hot profile lets the re-optimizer hoist.
func crlShardShape(t *testing.T) *vcode.Program {
	return assemble(t, func(b *vcode.Builder) {
		mod, i, n, v := b.Temp(), b.Temp(), b.Temp(), b.Temp()
		b.Ld32(mod, vcode.RArg0, 0)
		b.MovI(i, 0)
		b.MovI(n, 32)
		top := b.NewLabel()
		b.Bind(top)
		b.Ld32X(v, vcode.RArg0, i)
		b.RemU(v, v, mod)
		b.AddIU(i, i, 4)
		b.BltU(i, n, top)
		b.MovI(vcode.RRet, 0)
		b.Ret()
	})
}

func TestVerifyCacheRemembersRejections(t *testing.T) {
	ResetCache()
	bad := assemble(t, func(b *vcode.Builder) {
		b.Call("kernel_format_disk")
		b.Ret()
	})
	pol := DefaultPolicy()
	_, err1 := Verify(bad, pol)
	_, err2 := Verify(bad, pol)
	if err1 == nil || err2 == nil {
		t.Fatal("disallowed call verified")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("cached rejection differs: %v vs %v", err1, err2)
	}
	hits, _ := CacheStats()
	if hits == 0 {
		t.Fatal("second Verify did not hit the cache")
	}
}

// TestConcurrentSandboxWithCalls: the verifier reads each call's entry-point
// name under the intern table's lock, so goroutines keying and compiling
// programs with calls, while others intern new names, must each get what a
// serial download gets: the same build for an allowed entry point, a
// rejection naming an unknown one.
func TestConcurrentSandboxWithCalls(t *testing.T) {
	ResetCache()
	pol := DefaultPolicy()
	calls := func(name string, n int) *vcode.Program {
		b := vcode.NewBuilder("calls")
		for i := 0; i < n; i++ {
			b.Call(name)
		}
		return b.MustAssemble()
	}
	var progs []*vcode.Program
	var want []*vcode.Program
	for _, name := range []string{"ash_send", "ash_copy", "ash_dilp", "ash_msg_load"} {
		for _, n := range []int{1, 40} { // the second's key spans chunks
			p := calls(name, n)
			sp, err := Sandbox(p, pol)
			if err != nil {
				t.Fatal(err)
			}
			progs, want = append(progs, p), append(want, sp.Code)
		}
	}
	const goroutines, rounds = 4, 25
	errs := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, p := range progs {
					if sp, err := Sandbox(p, pol); err != nil || sp.Code != want[i] {
						errs[g] = append(errs[g], fmt.Sprintf("program %d: build %p, error %v; serially %p", i, sp.Code, err, want[i]))
					}
				}
				name := fmt.Sprintf("unknown_%d_%d", g, r)
				if _, err := Sandbox(calls(name, 3), pol); err == nil || !strings.Contains(err.Error(), name) {
					errs[g] = append(errs[g], fmt.Sprintf("a call to %s: error %v", name, err))
				}
			}
		}()
	}
	wg.Wait()
	for g, es := range errs {
		for _, e := range es {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// keyBase is a program with every field a cache key covers set to a value a
// one-field change can move: two persistent registers, a call, a branch
// (the next to last instruction); pad instructions before the branch make
// a long key span several chunks.
func keyBase(pad int) *vcode.Program {
	p := &vcode.Program{
		Name:       "key",
		NextReg:    12,
		Persistent: []vcode.Reg{5, 6},
		Insns: []vcode.Insn{
			{Op: vcode.OpMovI, Rd: 8, Imm: -7},
			{Op: vcode.OpAddIU, Rd: 9, Rs: 8, Imm: 4},
			{Op: vcode.OpCall, Sym: vcode.Intern("ash_send")},
		},
	}
	for i := 0; i < pad; i++ {
		p.Insns = append(p.Insns, vcode.Insn{Op: vcode.OpAddIU, Rd: 9, Rs: 9, Imm: 1})
	}
	p.Insns = append(p.Insns, vcode.Insn{Op: vcode.OpBltU, Rs: 9, Rt: 8, Target: 1}, vcode.Insn{Op: vcode.OpRet})
	return p
}

// keyProgram builds n instructions, a call every third one when calls is
// set, with a builder of its own.
func keyProgram(n int, calls bool) *vcode.Program {
	b := vcode.NewBuilder("straddle")
	acc := b.Persistent()
	r := b.Temp()
	for i := 0; i < n-1; i++ { // and the Ret Assemble appends
		switch {
		case calls && i%3 == 0:
			b.Call([]string{"ash_send", "ash_copy", "ash_dilp"}[i%3])
		case i%2 == 0:
			b.AddIU(r, r, int32(i))
		default:
			b.AddU(acc, acc, r)
		}
	}
	return b.MustAssemble()
}

// collisionGroups returns groups of programs with equal content; any two
// groups differ. The keyBase variants each differ from the base in one
// field (the name, NextReg, a persistent register or their number, the
// number of instructions, any field of one instruction) and come with a
// Clone; the keyPrograms, at lengths whose key ends on, short of and past a
// chunk, are built twice.
func collisionGroups() [][]*vcode.Program {
	variants := []func(p *vcode.Program){
		func(p *vcode.Program) {},
		func(p *vcode.Program) { p.Name = "kez" },
		func(p *vcode.Program) { p.Name = "" },
		func(p *vcode.Program) { p.Name = "key\x00" },
		func(p *vcode.Program) { p.Name = strings.Repeat("n", 1500) },
		func(p *vcode.Program) { p.NextReg++ },
		func(p *vcode.Program) { p.Persistent[1] = 7 },
		func(p *vcode.Program) { p.Persistent = append(p.Persistent, 7) },
		func(p *vcode.Program) { p.Persistent = p.Persistent[:1] },
		func(p *vcode.Program) { p.Persistent = nil },
		func(p *vcode.Program) {
			p.Insns = append(p.Insns[:3:3], append([]vcode.Insn{{Op: vcode.OpMovI, Rd: 10}}, p.Insns[3:]...)...)
		},
		func(p *vcode.Program) { p.Insns = append(p.Insns[:1], p.Insns[2:]...) },
		func(p *vcode.Program) { p.Insns[0].Op = vcode.OpAddIU },
		func(p *vcode.Program) { p.Insns[0].Rd++ },
		func(p *vcode.Program) { p.Insns[1].Rs++ },
		func(p *vcode.Program) { p.Insns[len(p.Insns)-2].Rt++ },
		func(p *vcode.Program) { p.Insns[0].Imm = 7 },
		func(p *vcode.Program) { p.Insns[1].Imm ^= -1 << 31 },
		func(p *vcode.Program) { p.Insns[len(p.Insns)-2].Target = 0 },
		func(p *vcode.Program) { p.Insns[2].Sym = vcode.Intern("ash_copy") },
	}
	var groups [][]*vcode.Program
	for _, pad := range []int{0, 100} {
		for _, mutate := range variants {
			p := keyBase(pad)
			mutate(p)
			groups = append(groups, []*vcode.Program{p, p.Clone()})
		}
	}
	for n := 30; n <= 34; n++ {
		for _, calls := range []bool{false, true} {
			groups = append(groups, []*vcode.Program{keyProgram(n, calls), keyProgram(n, calls)})
		}
	}
	return groups
}

// TestCacheCollisions: with every program hashed to one value, the cache
// still tells programs apart by comparison. Each distinct program verifies
// and builds once, programs with equal content hit, every build's Orig is
// the caller's program, and the hits and misses are those of a run with
// real hashes. Those equal counts also show that equal content hashes
// alike.
func TestCacheCollisions(t *testing.T) {
	groups := collisionGroups()
	pol := DefaultPolicy()
	type run struct {
		hits, misses uint64
		entries      int
		builds       int
		codes        [][]vcode.Insn
	}
	download := func() run {
		var r run
		ResetCache()
		stop := WatchCacheInserts(func(*Program) { r.builds++ })
		defer stop()
		for pass := 0; pass < 2; pass++ {
			for gi, g := range groups {
				for _, p := range g {
					sp, err := Sandbox(p, pol)
					if err != nil {
						t.Fatalf("group %d: %v", gi, err)
					}
					if !sp.Orig.Equal(p) {
						t.Fatalf("group %d: a build of another program came back", gi)
					}
					r.codes = append(r.codes, sp.Code.Insns)
				}
			}
		}
		r.hits, r.misses = CacheStats()
		r.entries = CacheEntries()
		return r
	}
	real := download()
	defer func(h func(*vcode.Program) uint64) { programHash = h }(programHash)
	programHash = func(*vcode.Program) uint64 { return 1 }
	collided := download()

	// A group's first download misses once for its build and once for its
	// verdict; its other three hit.
	n := len(groups)
	if collided.builds != n || collided.entries != 2*n || collided.misses != uint64(2*n) ||
		collided.hits != uint64(3*n) {
		t.Errorf("colliding: %d builds, %d entries, %d misses, %d hits over %d groups; want %d, %d, %d, %d",
			collided.builds, collided.entries, collided.misses, collided.hits, n, n, 2*n, 2*n, 3*n)
	}
	if real.hits != collided.hits || real.misses != collided.misses || real.entries != collided.entries {
		t.Errorf("real hashes: %d hits, %d misses, %d entries; colliding: %d, %d, %d",
			real.hits, real.misses, real.entries, collided.hits, collided.misses, collided.entries)
	}
	if !reflect.DeepEqual(real.codes, collided.codes) {
		t.Error("colliding hashes changed a build")
	}

	// Goroutines downloading the colliding set at once each get their own
	// program's build.
	var wg sync.WaitGroup
	bad := make([]int, 4)
	for g := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(groups) - 1; i >= 0; i-- {
				p := groups[i][g%2]
				if sp, err := Sandbox(p, pol); err != nil || !sp.Orig.Equal(p) {
					bad[g]++
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(bad, make([]int, 4)) {
		t.Errorf("concurrent colliding downloads: %v wrong builds per goroutine", bad)
	}
}
