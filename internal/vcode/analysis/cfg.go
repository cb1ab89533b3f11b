// Package analysis is a static-analysis framework over vcode programs:
// control-flow graph construction, dominators and natural loops, backward
// dataflow (register liveness), an unsigned interval analysis, and a
// handler lint pass.
//
// The sandbox uses it to harden download-time verification (unreachable
// code, undisciplined indirect jumps) and to elide provably redundant SFI
// checks (Wahbe-style instrumentation is the classic client of exactly
// these analyses); ashbench surfaces the lint pass to handler authors.
//
// Everything here works on instruction indices of a single Program. The
// programs are handler-sized (tens of instructions), so the algorithms
// favour clarity over asymptotics: dominators are iterative bitsets,
// dataflow is a round-robin worklist.
package analysis

import "ashs/internal/vcode"

// Block is one basic block: the half-open instruction range [Start, End).
// Branches appear only as the last instruction of a block.
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int // successor block IDs (static edges only)
	Preds []int
}

// Last returns the index of the block's final instruction.
func (b *Block) Last() int { return b.End - 1 }

// CFG is the control-flow graph of a program.
type CFG struct {
	Prog    *vcode.Program
	Blocks  []Block
	BlockOf []int // instruction index -> block ID

	// HasIndirect records that the program contains OpJmpR. Indirect
	// targets are not represented as edges; analyses that need an
	// over-approximation (reachability) treat a jmpr block as reaching
	// every block, and transformations (the optimizing instrumenter)
	// refuse to run at all.
	HasIndirect bool

	// FallsOff lists blocks from which control can leave the program other
	// than by ret: a fall-through past the end or a static target outside
	// it (the machine faults with a wild jump there).
	FallsOff []int
}

// Build constructs the CFG of p. It takes unverified code (Lint runs before
// the verifier), so a static target outside the program is control leaving
// it, as a fall-through past the end is.
func Build(p *vcode.Program) *CFG {
	n := len(p.Insns)
	c := &CFG{Prog: p, BlockOf: make([]int, n)}
	if n == 0 {
		return c
	}

	// Leaders: entry, branch targets, and instructions after terminators.
	leader := make([]bool, n)
	leader[0] = true
	for pc, in := range p.Insns {
		if in.Op.Is(vcode.Branch) && in.Target >= 0 && int(in.Target) < n {
			leader[in.Target] = true
		}
		if in.Op.Is(vcode.EndsBlock) && pc+1 < n {
			leader[pc+1] = true
		}
		if in.Op == vcode.OpJmpR {
			c.HasIndirect = true
		}
	}

	leaders := 0
	for _, l := range leader {
		if l {
			leaders++
		}
	}
	c.Blocks = make([]Block, 0, leaders)
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			c.Blocks = append(c.Blocks, Block{ID: len(c.Blocks), Start: pc})
		}
		c.BlockOf[pc] = len(c.Blocks) - 1
	}
	for i := range c.Blocks {
		if i+1 < len(c.Blocks) {
			c.Blocks[i].End = c.Blocks[i+1].Start
		} else {
			c.Blocks[i].End = n
		}
	}

	// Edges.
	for i := range c.Blocks {
		b := &c.Blocks[i]
		leaves := false
		edge := func(to int) {
			if to >= 0 && to < n {
				b.Succs = append(b.Succs, c.BlockOf[to])
			} else {
				leaves = true
			}
		}
		last := p.Insns[b.Last()]
		if last.Op.Is(vcode.Branch) {
			edge(int(last.Target))
		}
		if !last.Op.Is(vcode.EndsBlock) || last.Op.Is(vcode.Cond) {
			edge(b.End)
		}
		if leaves {
			c.FallsOff = append(c.FallsOff, b.ID)
		}
	}
	for i := range c.Blocks {
		for _, s := range c.Blocks[i].Succs {
			c.Blocks[s].Preds = append(c.Blocks[s].Preds, i)
		}
	}
	return c
}

// Reachable computes which blocks execution can reach from the entry.
// Indirect jumps are over-approximated: a block ending in OpJmpR is
// treated as reaching every block (its targets are runtime values).
func (c *CFG) Reachable() []bool {
	reach := make([]bool, len(c.Blocks))
	if len(c.Blocks) == 0 {
		return reach
	}
	work := []int{0}
	reach[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		succs := c.Blocks[b].Succs
		if c.Prog.Insns[c.Blocks[b].Last()].Op == vcode.OpJmpR {
			for s := range c.Blocks {
				if !reach[s] {
					reach[s] = true
					work = append(work, s)
				}
			}
			continue
		}
		for _, s := range succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	return reach
}

// RPO returns the reachable blocks in reverse postorder (a good iteration
// order for forward dataflow).
func (c *CFG) RPO() []int {
	seen := make([]bool, len(c.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range c.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if len(c.Blocks) > 0 {
		dfs(0)
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
