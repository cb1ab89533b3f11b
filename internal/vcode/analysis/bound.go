package analysis

import (
	"fmt"
	"slices"

	"ashs/internal/vcode"
)

// Cost is what one run of a handler can spend.
type Cost struct {
	Insns int64 // instructions its machine executes, each call one
	Bytes int64 // bytes its ash_copy and ash_dilp calls move
}

// Bound returns the most one run of p can cost (Section III-B3 bounds a
// handler's running time; this is that bound, stated before it runs). It is
// the longest path through the CFG from the entry, each loop counted as its
// longest iteration times the trip count TripBound proves for it, and each
// call to ash_copy or ash_dilp as moving maxMsg bytes, the most a message
// can give it. Insns and Bytes are each their own maximum over the paths.
//
// A program with an indirect jump, a loop TripBound cannot count, or a
// cycle that is no natural loop has no bound; the error names where it is.
// A proven loop holds no other loop (its only backward branch is its
// latch), so the proven loops are disjoint and each is entered only at its
// header.
func Bound(p *vcode.Program, maxMsg int) (Cost, error) {
	c := Build(p)
	if len(c.Blocks) == 0 {
		return Cost{}, nil
	}
	if c.HasIndirect {
		pc := slices.IndexFunc(p.Insns, func(in vcode.Insn) bool { return in.Op == vcode.OpJmpR })
		return Cost{}, fmt.Errorf("indirect jump at pc %d: its targets are not edges", pc)
	}
	add := func(a, b Cost) Cost { return Cost{a.Insns + b.Insns, a.Bytes + b.Bytes} }
	longer := func(a, b Cost) Cost { return Cost{max(a.Insns, b.Insns), max(a.Bytes, b.Bytes)} }
	weight := func(b int) Cost {
		blk := &c.Blocks[b]
		w := Cost{Insns: int64(blk.End - blk.Start)}
		for _, in := range p.Insns[blk.Start:blk.End] {
			if in.Op == vcode.OpCall {
				if name := in.Sym.String(); name == "ash_copy" || name == "ash_dilp" {
					w.Bytes += int64(maxMsg)
				}
			}
		}
		return w
	}

	// A loop is one node: its cost, left through its latch.
	dom := c.Dominators()
	rng := c.Ranges()
	loops := c.NaturalLoops(dom)
	loopAt := make([]*Loop, len(c.Blocks)) // by header
	loopCost := make([]Cost, len(c.Blocks))
	for i := range loops {
		l := &loops[i]
		trips, ok := c.TripBound(l, dom, rng)
		if !ok {
			return Cost{}, fmt.Errorf("loop at pc %d: no proven trip count", c.Blocks[l.Header].Start)
		}
		// Every edge inside the body but the latch's back edge goes
		// forward, so an iteration's longest path is found in one pass
		// from the latch back to the header.
		iter := make(map[int]Cost, len(l.Blocks))
		for j := len(l.Blocks) - 1; j >= 0; j-- {
			b := l.Blocks[j]
			var rest Cost
			for _, s := range c.Blocks[b].Succs {
				if s != l.Header && l.Contains(s) {
					rest = longer(rest, iter[s])
				}
			}
			iter[b] = add(weight(b), rest)
		}
		it := iter[l.Header]
		loopAt[l.Header], loopCost[l.Header] = l, Cost{it.Insns * trips, it.Bytes * trips}
	}

	const (
		unseen = iota
		open
		done
	)
	state := make([]uint8, len(c.Blocks))
	memo := make([]Cost, len(c.Blocks))
	var longest func(b int) (Cost, error)
	longest = func(b int) (Cost, error) {
		switch state[b] {
		case done:
			return memo[b], nil
		case open:
			return Cost{}, fmt.Errorf("cycle through pc %d is no natural loop", c.Blocks[b].Start)
		}
		state[b] = open
		here, from := weight(b), b
		l := loopAt[b]
		if l != nil {
			here, from = loopCost[b], l.Latches[0]
		}
		var rest Cost
		for _, s := range c.Blocks[from].Succs {
			if l != nil && l.Contains(s) {
				continue
			}
			r, err := longest(s)
			if err != nil {
				return Cost{}, err
			}
			rest = longer(rest, r)
		}
		state[b], memo[b] = done, add(here, rest)
		return memo[b], nil
	}
	return longest(0)
}
