package sandbox

import (
	"fmt"

	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// WatchCacheInserts calls f, under the cache's lock, with every build the
// compile cache stores from now on, until the returned stop is called.
func WatchCacheInserts(f func(*Program)) (stop func()) {
	cache.Lock()
	cache.onInsert = f
	cache.Unlock()
	return func() {
		cache.Lock()
		cache.onInsert = nil
		cache.Unlock()
	}
}

// CheckBound returns an error unless each of the three builds ThreeWay made
// of p under budget — naive, optimized, and reoptimized under out.Profile —
// ran at most out.Rounds times its own analysis.Bound at maxMsg, or has no
// bound though p has one.
func CheckBound(p *vcode.Program, budget BudgetMode, out *DiffOutcome, maxMsg int) error {
	insns := [3]int64{out.NaiveInsns, out.OptInsns, out.ReoptInsns}
	for i, pol := range threeWayPolicies(budget, out.Profile) {
		sp, err := Sandbox(p, pol)
		if err != nil {
			return err
		}
		bound, err := analysis.Bound(sp.Code, maxMsg)
		if err != nil {
			return fmt.Errorf("%s build: %w\n%s", threeWayNames[i], err, sp.Code)
		}
		if insns[i] > int64(out.Rounds)*bound.Insns {
			return fmt.Errorf("%s build ran %d instructions in %d rounds, over its bound of %d a round\n%s",
				threeWayNames[i], insns[i], out.Rounds, bound.Insns, sp.Code)
		}
	}
	return nil
}
