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

// TripBound tries to prove an exact iteration count for l, of any shape:
//
//	head: ...                  ; every branch but the latch's is forward
//	      addiu i, i, c        ; the one def of i (c > 0), dominating the latch
//	      ...
//	      bltu  i, n, head     ; or bne, either operand order
//
// It returns how many times the latch test runs on every entry. The
// conditions are strict because exactness is what lets a one-shot budget
// drain replace the per-latch drain at every budget level:
//
//   - a single latch, after the header in program order, that is also the
//     loop's only exit, so its test alone decides termination;
//   - exactly one def of i in the loop, `addiu i, i, c` with c > 0, in a
//     block dominating the latch, so i advances by c once per iteration;
//   - n has no def in the loop, and i and n are exact at entry (the
//     interval analysis at the header's non-loop predecessors);
//   - no call (it may clobber any register), ret or jmpr, and every other
//     branch is strictly forward: the body is acyclic but for the latch
//     edge, and the latch is the only budget check the naive pass puts
//     inside it.
//
// The result is capped at MaxTrips.
func (c *CFG) TripBound(l *Loop, d *Dom, r *Ranges) (int64, bool) {
	if len(l.Latches) != 1 {
		return 0, false
	}
	latch := l.Latches[0]
	lb, header := &c.Blocks[latch], &c.Blocks[l.Header]
	last := c.Prog.Insns[lb.Last()]
	if (last.Op != vcode.OpBltU && last.Op != vcode.OpBne) ||
		int(last.Target) != header.Start || lb.Last() <= header.Start {
		return 0, false
	}
	for _, e := range l.Exits {
		if e != latch {
			return 0, false
		}
	}
	defsOf := map[vcode.Reg]int{}
	defAt := map[vcode.Reg]int{}
	for _, bi := range l.Blocks {
		b := &c.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			in := c.Prog.Insns[pc]
			switch {
			case in.Op == vcode.OpCall || in.Op == vcode.OpRet || in.Op == vcode.OpJmpR:
				return 0, false
			case in.Op.Is(vcode.Branch) && pc != lb.Last() && int(in.Target) <= pc:
				return 0, false
			}
			in.Defs().Each(func(reg vcode.Reg) { defsOf[reg]++; defAt[reg] = pc })
		}
	}
	candidates := [][2]vcode.Reg{{last.Rs, last.Rt}}
	if last.Op == vcode.OpBne {
		candidates = append(candidates, [2]vcode.Reg{last.Rt, last.Rs})
	}
	for _, cand := range candidates {
		i, bound := cand[0], cand[1]
		if defsOf[bound] != 0 || defsOf[i] != 1 {
			continue
		}
		inc := c.Prog.Insns[defAt[i]]
		if inc.Op != vcode.OpAddIU || inc.Rs != i || inc.Imm <= 0 ||
			!d.Dominates(c.BlockOf[defAt[i]], latch) {
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

// MaxTrips caps the trip count TripBound returns, so callers can multiply
// it by a body length without overflow concerns.
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
