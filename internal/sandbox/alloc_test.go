package sandbox_test

import (
	"reflect"
	"sync"
	"testing"

	"ashs/internal/alloctest"
	"ashs/internal/bench/hotpath"
	"ashs/internal/crl"
	"ashs/internal/sandbox"
	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

var budgetModes = []sandbox.BudgetMode{sandbox.BudgetTimer, sandbox.BudgetSoftware}

// libraryDiffs runs ThreeWay with a measured profile over every crl
// handler in both budget modes and returns the outcomes in order.
func libraryDiffs(t *testing.T) []*sandbox.DiffOutcome {
	var outs []*sandbox.DiffOutcome
	for _, e := range crl.Library() {
		for _, mode := range budgetModes {
			cfg := sandbox.DiffConfig{Budget: mode, Rounds: 6, Msg: e.Msg, Setup: e.Setup}
			out, err := sandbox.ThreeWay(e.Prog, nil, cfg)
			if err != nil {
				t.Errorf("%s: %v", e.Name, err)
				continue
			}
			outs = append(outs, out)
		}
	}
	return outs
}

// TestThreeWayConcurrentMatchesSerial: the harness's memories come from one
// free list, so four goroutines sweeping the registry at once lease and
// return them concurrently; each must see exactly the serial outcomes.
func TestThreeWayConcurrentMatchesSerial(t *testing.T) {
	serial := libraryDiffs(t)
	var wg sync.WaitGroup
	got := make([][]*sandbox.DiffOutcome, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = libraryDiffs(t)
		}()
	}
	wg.Wait()
	for g, outs := range got {
		if !reflect.DeepEqual(outs, serial) {
			t.Errorf("goroutine %d: outcomes differ from the serial sweep", g)
		}
	}
}

// TestWarmThreeWayAllocations: with the compile cache and the harness's
// free list warm, a ThreeWay over a registry handler allocates its
// machines, profile and messages, not its memories (four of 16 KiB each
// before they were leased: 73 704 B per call).
func TestWarmThreeWayAllocations(t *testing.T) {
	sandbox.ResetCache()
	calls := len(libraryDiffs(t)) // warms the cache and the free list
	per := alloctest.Bytes(nil, func() { libraryDiffs(t) }) / uint64(calls)
	t.Logf("warm ThreeWay: %d B per call over %d calls", per, calls)
	if per > 16<<10 {
		t.Errorf("a warm ThreeWay allocates %d B per call, want at most 16 KiB", per)
	}
}

// TestCacheMissAllocations: past several flushes, a compile-cache miss
// allocates its build and its transient verification, not new tables: it
// was 2 909 B when a flush made both maps again and the naive build was
// sized for two slots per instruction, and making either map again costs
// some 300 B per miss. The first miss into a cold cache allocates no more
// than the 3 696 B it did then: the tables are still made at their first
// insert (presizing them to the cap would show here).
func TestCacheMissAllocations(t *testing.T) {
	pol := sandbox.DefaultPolicy()
	first := hotpath.NewHandlerProgram(-1)
	cold := alloctest.Bytes(sandbox.ResetCache, func() {
		if _, err := sandbox.Sandbox(first, pol); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold cache, one miss: %d B", cold)
	if cold > 3696 {
		t.Errorf("the first miss into a cold cache allocates %d B, want at most 3696", cold)
	}

	const warm, measured = 3 * 256, 2 * 256 // whole flush cycles of both tables
	progs := make([]*vcode.Program, warm+measured)
	for i := range progs {
		progs[i] = hotpath.NewHandlerProgram(int32(i))
	}
	miss := func(ps []*vcode.Program) {
		for _, p := range ps {
			if _, err := sandbox.Sandbox(p, pol); err != nil {
				t.Fatal(err)
			}
		}
	}
	var misses0 uint64
	per := alloctest.Bytes(func() {
		sandbox.ResetCache()
		miss(progs[:warm])
		_, misses0 = sandbox.CacheStats()
	}, func() { miss(progs[warm:]) }) / measured
	if _, misses := sandbox.CacheStats(); misses-misses0 != 2*measured {
		t.Fatalf("%d misses, want %d: every download must miss", misses-misses0, 2*measured)
	}
	t.Logf("steady-state miss: %d B", per)
	if per > 2048 {
		t.Errorf("a steady-state miss allocates %d B, want at most 2048", per)
	}
}

// TestBuildsAreExact: a build and a CFG are made at their final length,
// so a build the cache keeps holds no slack. Every registry handler under
// the naive, optimized and profiled policies, in both budget modes.
func TestBuildsAreExact(t *testing.T) {
	for _, e := range crl.Library() {
		if c := analysis.Build(e.Prog); cap(c.Blocks) != len(c.Blocks) {
			t.Errorf("%s: CFG of %d blocks has capacity %d", e.Name, len(c.Blocks), cap(c.Blocks))
		}
		for _, mode := range budgetModes {
			prof, err := sandbox.GatherProfile(e.Prog, sandbox.DiffConfig{Budget: mode, Rounds: 6, Msg: e.Msg, Setup: e.Setup})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			naive := sandbox.DefaultPolicy()
			naive.Budget = mode
			opt := *naive
			opt.Optimize = true
			profiled := opt
			profiled.Profile = prof
			for name, pol := range map[string]*sandbox.Policy{"naive": naive, "optimized": &opt, "profiled": &profiled} {
				sp, err := sandbox.Sandbox(e.Prog, pol)
				if err != nil {
					t.Fatalf("%s %s: %v", e.Name, name, err)
				}
				if n, c := len(sp.Code.Insns), cap(sp.Code.Insns); n != c {
					t.Errorf("%s %s budget %d: build of %d insns has capacity %d", e.Name, name, mode, n, c)
				}
			}
		}
	}
}
