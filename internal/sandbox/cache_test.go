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
	err1 := Verify(bad, pol)
	err2 := Verify(bad, pol)
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

// TestConcurrentSandboxWithCalls: a key reads each call's entry-point name
// under the intern table's lock, so goroutines keying and compiling
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
