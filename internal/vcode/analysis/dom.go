package analysis

import "ashs/internal/vcode"

// Dom holds dominator sets for a CFG, computed over the static edges
// (indirect-jump targets are not modeled; transformations that rely on
// dominance refuse programs containing OpJmpR).
type Dom struct {
	c *CFG
	// dom[b] is the set of blocks dominating b, as a bitset. Blocks not
	// reachable through static edges dominate-vacuously (full set), the
	// standard convention for the iterative algorithm.
	dom   []bitset
	reach []bool
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s bitset) set(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s bitset) fill(n int) {
	for i := 0; i < n; i++ {
		s.set(i)
	}
}

func (s bitset) intersect(t bitset) {
	for i := range s {
		s[i] &= t[i]
	}
}

func (s bitset) equal(t bitset) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Dominators computes dominator sets with the classic iterative bitset
// algorithm (programs are handler-sized; no need for Lengauer-Tarjan).
func (c *CFG) Dominators() *Dom {
	n := len(c.Blocks)
	d := &Dom{c: c, dom: make([]bitset, n), reach: make([]bool, n)}
	if n == 0 {
		return d
	}
	// Static-edge reachability (no jmpr over-approximation: dominance is
	// only consulted by clients that already rejected indirect jumps).
	work := []int{0}
	d.reach[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range c.Blocks[b].Succs {
			if !d.reach[s] {
				d.reach[s] = true
				work = append(work, s)
			}
		}
	}
	for b := 0; b < n; b++ {
		d.dom[b] = newBitset(n)
		if b == 0 {
			d.dom[b].set(0)
		} else {
			d.dom[b].fill(n)
		}
	}
	order := c.RPO()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == 0 {
				continue
			}
			nd := newBitset(n)
			nd.fill(n)
			any := false
			for _, p := range c.Blocks[b].Preds {
				if d.reach[p] {
					nd.intersect(d.dom[p])
					any = true
				}
			}
			if !any {
				continue
			}
			nd.set(b)
			if !nd.equal(d.dom[b]) {
				d.dom[b] = nd
				changed = true
			}
		}
	}
	return d
}

// Dominates reports whether block a dominates block b.
func (d *Dom) Dominates(a, b int) bool { return d.dom[b].has(a) }

// Loop is one natural loop, merged over all back edges sharing a header.
type Loop struct {
	Header  int   // header block ID
	Latches []int // blocks with a back edge to the header
	Blocks  []int // all member blocks (including header), ascending
	// Exits lists member blocks with at least one successor outside the
	// loop (the sources of exit edges).
	Exits []int

	member []bool
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool { return b < len(l.member) && l.member[b] }

// NaturalLoops finds the natural loops of the CFG: one Loop per header,
// merging the bodies of all back edges into it. Back edges from blocks
// not reachable via static edges are ignored.
func (c *CFG) NaturalLoops(d *Dom) []Loop {
	byHeader := map[int]*Loop{}
	var headers []int
	for b := range c.Blocks {
		if !d.reach[b] {
			continue
		}
		for _, h := range c.Blocks[b].Succs {
			if !d.Dominates(h, b) {
				continue
			}
			l := byHeader[h]
			if l == nil {
				l = &Loop{Header: h, member: make([]bool, len(c.Blocks))}
				l.member[h] = true
				byHeader[h] = l
				headers = append(headers, h)
			}
			l.Latches = append(l.Latches, b)
			// Walk predecessors back from the latch to the header.
			stack := []int{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.member[x] {
					continue
				}
				l.member[x] = true
				for _, p := range c.Blocks[x].Preds {
					stack = append(stack, p)
				}
			}
		}
	}
	loops := make([]Loop, 0, len(headers))
	for _, h := range headers {
		l := byHeader[h]
		for b, in := range l.member {
			if !in {
				continue
			}
			l.Blocks = append(l.Blocks, b)
			for _, s := range c.Blocks[b].Succs {
				if !l.member[s] {
					l.Exits = append(l.Exits, b)
					break
				}
			}
		}
		loops = append(loops, *l)
	}
	return loops
}

// TripBound tries to prove an exact iteration count for l. It recognizes
// the counted-loop idiom on single-block loops:
//
//	head: ...                  ; exactly one def of i: addiu i, i, c (c > 0)
//	      addiu i, i, c        ; bound n loop-invariant, exact at entry
//	      bltu  i, n, head     ; or: bne i, n, head
//
// and returns the number of times the loop body executes. Entry values
// come from the interval analysis at the header's non-loop predecessors.
// Blocks containing OpCall are rejected (kernel entry points receive the
// machine and may clobber any register). The result is capped at MaxTrips
// so callers can multiply by body lengths without overflow concerns.
func (c *CFG) TripBound(l *Loop, r *Ranges) (int64, bool) {
	if len(l.Blocks) != 1 || len(l.Latches) != 1 || l.Latches[0] != l.Header {
		return 0, false
	}
	b := &c.Blocks[l.Header]
	last := c.Prog.Insns[b.Last()]
	if (last.Op != vcode.OpBltU && last.Op != vcode.OpBne) || int(last.Target) != b.Start {
		return 0, false
	}
	// Count defs inside the block; find the counter increment.
	defsOf := map[vcode.Reg]int{}
	incAt := -1
	for pc := b.Start; pc < b.End; pc++ {
		in := c.Prog.Insns[pc]
		if in.Op == vcode.OpCall {
			return 0, false
		}
		in.Defs().Each(func(d vcode.Reg) { defsOf[d]++ })
		if in.Op == vcode.OpAddIU && in.Rd == in.Rs && in.Imm > 0 {
			incAt = pc
		}
	}
	// Identify counter and bound among the branch operands. Only the
	// "counter first" form (bltu i, n / bne i, n) and its bne-swapped
	// variant are recognized.
	candidates := [][2]vcode.Reg{{last.Rs, last.Rt}}
	if last.Op == vcode.OpBne {
		candidates = append(candidates, [2]vcode.Reg{last.Rt, last.Rs})
	}
	for _, cand := range candidates {
		i, bound := cand[0], cand[1]
		if defsOf[bound] != 0 || defsOf[i] != 1 || incAt < 0 {
			continue
		}
		inc := c.Prog.Insns[incAt]
		if inc.Rd != i {
			continue
		}
		a, okA := c.EntryValue(l, r, i)
		n, okN := c.EntryValue(l, r, bound)
		if !okA || !okN {
			continue
		}
		step := int64(inc.Imm)
		var trips int64
		switch last.Op {
		case vcode.OpBltU:
			if int64(n) <= int64(a) {
				trips = 1
			} else {
				trips = (int64(n) - int64(a) + step - 1) / step
			}
		case vcode.OpBne:
			if int64(n) <= int64(a) || (int64(n)-int64(a))%step != 0 {
				continue
			}
			trips = (int64(n) - int64(a)) / step
		}
		// Guard against counter wraparound past 2^32 mid-loop.
		if trips < 1 || trips > MaxTrips || int64(a)+trips*step > int64(^uint32(0)) {
			continue
		}
		return trips, true
	}
	return 0, false
}

// MaxTrips caps every trip count a loop prover returns (TripBound here,
// reopt.TripBoundMultiBlock for multi-block loops).
const MaxTrips = 1 << 20

// EntryValue returns the exact value of reg on loop entry: the meet of the
// interval analysis at the header's predecessors outside the loop.
func (c *CFG) EntryValue(l *Loop, r *Ranges, reg vcode.Reg) (uint32, bool) {
	iv := Interval{}
	first := true
	for _, p := range c.Blocks[l.Header].Preds {
		if l.Contains(p) {
			continue
		}
		out := r.Out[p][reg]
		if first {
			iv, first = out, false
		} else {
			iv = iv.Union(out)
		}
	}
	if first {
		return 0, false // header is the program entry: registers unknown
	}
	return iv.Exact()
}
