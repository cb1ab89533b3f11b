package sandbox_test

// The registry sweep: every handler the crl package builds, under both
// budget strategies, against the measured profile and a bank of
// adversarial profiles. This is the acceptance gate for the DCG loop —
// profile-guided re-optimization may only ever change cost, never
// semantics, no matter what the profile claims.

import (
	"testing"

	"ashs/internal/crl"
	"ashs/internal/netdev"
	"ashs/internal/sandbox"
	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
	"ashs/internal/vcode/reopt"
)

// boundMsg is the largest message a handler can be given: the AN2 MTU.
var boundMsg = netdev.AN2Config().MaxFrame

// adversarialProfiles builds the profile bank for a program: profiles
// the optimizer must survive even though no execution produced them.
func adversarialProfiles(p *vcode.Program) map[string]*reopt.Profile {
	n := len(p.Insns)
	zero := make([]uint64, n)
	sat := make([]uint64, n)
	for i := range sat {
		sat[i] = ^uint64(0)
	}
	// Inconsistent with any run: wrong length, wild counts claiming cold
	// code hot and branches taken more often than their blocks executed.
	incons := make([]uint64, n+7)
	for i := range incons {
		incons[i] = uint64(i*2654435761) % 1e9
	}
	return map[string]*reopt.Profile{
		"all-zero":     {Handler: p.Name, Invocations: 0, Counts: zero},
		"saturated":    {Handler: p.Name, Invocations: 1, Counts: sat},
		"inconsistent": {Handler: p.Name, Invocations: ^uint64(0), Counts: incons},
		"nil-counts":   {Handler: p.Name, Invocations: 3, Counts: nil},
	}
}

// TestThreeWayRegistry also holds every handler to its proven bound: each
// has one, and each build of it runs at most its own bound a round.
func TestThreeWayRegistry(t *testing.T) {
	modes := map[string]sandbox.BudgetMode{
		"timer":    sandbox.BudgetTimer,
		"software": sandbox.BudgetSoftware,
	}
	for _, e := range crl.Library() {
		if _, err := analysis.Bound(e.Prog, boundMsg); err != nil {
			t.Errorf("%s has no bound: %v", e.Name, err)
			continue
		}
		for mname, mode := range modes {
			cfg := sandbox.DiffConfig{
				Budget: mode, Rounds: 6, Msg: e.Msg, Setup: e.Setup,
			}
			t.Run(e.Name+"/"+mname+"/measured", func(t *testing.T) {
				out, err := sandbox.ThreeWay(e.Prog, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.FaultRounds != 0 {
					t.Fatalf("registry handler faulted: %+v", out)
				}
				if err := sandbox.CheckBound(e.Prog, mode, out, boundMsg); err != nil {
					t.Fatal(err)
				}
			})
			for pname, prof := range adversarialProfiles(e.Prog) {
				t.Run(e.Name+"/"+mname+"/"+pname, func(t *testing.T) {
					out, err := sandbox.ThreeWay(e.Prog, prof, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sandbox.CheckBound(e.Prog, mode, out, boundMsg); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Starved budgets: equivalence is off the table (the coarse
			// drain faults earlier than per-iteration checks), confinement
			// is not.
			if mode == sandbox.BudgetSoftware {
				t.Run(e.Name+"/starved", func(t *testing.T) {
					scfg := cfg
					scfg.ConfinementOnly = true
					for _, b := range []int64{5, 25, 60, 120} {
						scfg.InsnBudget = b
						if _, err := sandbox.ThreeWay(e.Prog, nil, scfg); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestReoptActuallyImproves pins the profitability the reopt experiment
// reports: with a measured profile, the re-optimized variant runs
// strictly fewer dynamic instructions than the statically optimized one
// on the handlers built to expose each transform.
func TestReoptActuallyImproves(t *testing.T) {
	cases := []struct {
		name string
		mode sandbox.BudgetMode
	}{
		// Message-carried modulus: only the profile can hoist the per-word
		// divide check out of the loop.
		{"crl-shard-counter", sandbox.BudgetTimer},
		// Multi-block copy loop: only the profile-guided trip analysis can
		// coarsen the per-iteration budget checks.
		{"crl-write-sparse", sandbox.BudgetSoftware},
	}
	byName := map[string]crl.LibraryEntry{}
	for _, e := range crl.Library() {
		byName[e.Name] = e
	}
	for _, tc := range cases {
		e, ok := byName[tc.name]
		if !ok {
			t.Fatalf("registry lost handler %s", tc.name)
		}
		out, err := sandbox.ThreeWay(e.Prog, nil, sandbox.DiffConfig{
			Budget: tc.mode, Rounds: 4, Msg: e.Msg, Setup: e.Setup,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.ReoptInsns >= out.OptInsns {
			t.Errorf("%s: reopt %d insns, statically optimized %d — no win",
				tc.name, out.ReoptInsns, out.OptInsns)
		}
	}
}

// TestThreeWayCopyOverlaps: a handler that calls ash_copy on overlapping
// ranges, the destination above the source and then below it, and reads
// a word of each destination back runs alike naive, optimized and
// re-optimized under both budget strategies. Later rounds copy what the
// earlier ones moved, so the region compared at the end holds every copy.
func TestThreeWayCopyOverlaps(t *testing.T) {
	b := vcode.NewBuilder("copy-overlaps")
	for _, c := range []struct{ src, dst int32 }{{0x40, 0x43}, {0x83, 0x80}} {
		b.MovI(vcode.RArg0, sandbox.DiffBase+c.src)
		b.MovI(vcode.RArg1, sandbox.DiffBase+c.dst)
		b.MovI(vcode.RArg2, 10)
		b.Call("ash_copy")
	}
	b.MovI(8, sandbox.DiffBase)
	b.Ld32(9, 8, 0x44)
	b.Ld32(10, 8, 0x80)
	b.AddU(vcode.RRet, 9, 10)
	p := b.MustAssemble()
	for _, mode := range []sandbox.BudgetMode{sandbox.BudgetTimer, sandbox.BudgetSoftware} {
		out, err := sandbox.ThreeWay(p, nil, sandbox.DiffConfig{Budget: mode, Rounds: 3})
		if err != nil {
			t.Fatalf("budget mode %d: %v", mode, err)
		}
		if out.Rounds != 3 || out.FaultRounds != 0 {
			t.Fatalf("budget mode %d: %+v, want 3 clean rounds", mode, out)
		}
	}
}
