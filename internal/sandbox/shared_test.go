package sandbox_test

import (
	"reflect"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/mach"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// TestCachedBuildsStayUnchanged holds the callers of the compile cache to
// the read-only contract: every build keeps, to the end, the code, original
// and jump table it had when it entered the cache, after the registry has
// run through the three-way harness (which runs every build) and through
// a download-and-Reoptimize loop in core (which installs, swaps and
// re-instruments them).
func TestCachedBuildsStayUnchanged(t *testing.T) {
	type entry struct {
		sp         *sandbox.Program
		code, orig *vcode.Program // copies taken as the build entered
		jmp        []int
	}
	var entries []entry
	sandbox.ResetCache()
	stop := sandbox.WatchCacheInserts(func(sp *sandbox.Program) {
		entries = append(entries, entry{sp, sp.Code.Clone(), sp.Orig.Clone(),
			append([]int(nil), sp.JmpTable...)})
	})
	defer stop()

	for _, e := range crl.Library() {
		for _, mode := range []sandbox.BudgetMode{sandbox.BudgetTimer, sandbox.BudgetSoftware} {
			cfg := sandbox.DiffConfig{Budget: mode, Rounds: 6, Msg: e.Msg, Setup: e.Setup}
			if _, err := sandbox.ThreeWay(e.Prog, nil, cfg); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
	k := aegis.NewKernel("builds", sim.NewEngine(), mach.DS5000_240())
	sys := core.NewSystem(k)
	owner := k.Spawn("app", func(p *aegis.Process) {})
	for round := 0; round < 3; round++ {
		for _, e := range crl.Library() {
			a, err := sys.Download(owner, e.Prog, core.Options{Profile: true, OptimizeSFI: round == 1})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if _, err := sys.Reoptimize(a); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}

	if len(entries) == 0 {
		t.Fatal("no build entered the cache")
	}
	for _, e := range entries {
		if !e.sp.Code.Equal(e.code) || !e.sp.Orig.Equal(e.orig) ||
			!reflect.DeepEqual(e.sp.JmpTable, e.jmp) {
			t.Errorf("build %s changed after it entered the cache", e.sp.Code.Name)
		}
	}
}
