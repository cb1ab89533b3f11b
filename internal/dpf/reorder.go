package dpf

import "ashs/internal/sim"

// prunedStepCycles models the generated code's depth-bound test on a
// branch Demux skips after Reorder: one compare against the running best
// depth instead of a full field load + dispatch (trieStepCycles).
// Uncalibrated: the paper has no reordering to measure.
const prunedStepCycles = sim.Time(1)

// Reorder is the DCG loop applied to demux: it sorts every node's branch
// list by observed hit count (descending, ties keeping install order) and
// annotates each branch with the deepest terminal reachable below it.
// Demux then examines hot branches first, which establishes a deep best
// match early and lets it skip sibling branches whose whole subtree is
// strictly shallower — the match decision is provably unchanged (the
// property test drives random hit permutations against the linear-scan
// oracle), only the examination order and cost are.
//
// The depth bounds are valid only for the current trie shape; Insert and
// Remove clear the reordered flag, so a re-Reorder after churn re-enables
// pruning with fresh bounds. Hit counters keep accumulating either way.
func (e *Engine) Reorder() {
	e.annotate(0)
	e.reordered = true
}

// annotate computes per-branch maxDepth bottom-up and relinks ni's branch
// list in order of hits, returning the deepest terminal depth relative to
// ni.
func (e *Engine) annotate(ni uint32) int {
	deepest := 0 // ni itself: a terminal here is at relative depth 0
	var buf [8]uint32
	list := buf[:0]
	for bi := e.nodes.at(ni).first; bi != nilIdx; {
		b := e.branches.at(bi)
		b.maxDepth = 0
		b.eachKid(func(_, kid uint32) {
			if d := int32(1 + e.annotate(kid)); d > b.maxDepth {
				b.maxDepth = d
			}
		})
		if int(b.maxDepth) > deepest {
			deepest = int(b.maxDepth)
		}
		// Stable insertion into list, most hits first.
		list = append(list, bi)
		j := len(list) - 1
		for ; j > 0 && e.branches.at(list[j-1]).hits < b.hits; j-- {
			list[j] = list[j-1]
		}
		list[j] = bi
		bi = b.next
	}
	link := &e.nodes.at(ni).first
	for _, bi := range list {
		*link = bi
		link = &e.branches.at(bi).next
	}
	*link = nilIdx
	return deepest
}
