package bench

import "testing"

// TestReoptImprovesHandlers is the experiment's acceptance claim: the
// DCG loop shows a measured improvement on at least two handlers (the
// divide-hoist and budget-coarsen showcases), the fused chain beats the
// sequential dispatch, the reordered trie beats insertion order, and the
// safety sweep reports zero divergences.
func TestReoptImprovesHandlers(t *testing.T) {
	r := mergeReopt(cellResults(&Config{Quick: true}, reoptCells()))

	improved := 0
	for _, run := range []ReoptRun{r.Shard, r.Sparse} {
		if run.ReoptInsns < run.StaticInsns && run.ReoptCycles < run.StaticCycles {
			improved++
		} else {
			t.Errorf("%s: static %d insns / %d cyc, reopt %d insns / %d cyc — no win",
				run.Name, run.StaticInsns, run.StaticCycles, run.ReoptInsns, run.ReoptCycles)
		}
	}
	if improved < 2 {
		t.Fatalf("re-optimization improved %d handlers, want >= 2", improved)
	}

	if r.Chain.FusedInsns >= r.Chain.SeqInsns || r.Chain.FusedCycles >= r.Chain.SeqCycles {
		t.Errorf("fused chain %d insns / %d cyc vs sequential %d / %d",
			r.Chain.FusedInsns, r.Chain.FusedCycles, r.Chain.SeqInsns, r.Chain.SeqCycles)
	}
	if r.Reorder.After >= r.Reorder.Before {
		t.Errorf("reordered trie %d cyc vs insertion order %d", r.Reorder.After, r.Reorder.Before)
	}
	if r.Diff.Divergences != 0 || r.Diff.Handlers < 9 || r.Diff.Rounds == 0 {
		t.Errorf("differential sweep: %+v", r.Diff)
	}
}
