package analysis

import "ashs/internal/vcode"

// Liveness holds per-block register liveness.
type Liveness struct {
	c *CFG
	// In[b]/Out[b]: registers live at block entry/exit.
	In, Out []vcode.RegSet
}

// exitLive is the set considered live when the handler returns: persistent
// registers survive to the next invocation, and the runtime reads RRet to
// distinguish consume from voluntary abort.
func exitLive(p *vcode.Program) vcode.RegSet {
	s := vcode.RegSet(0).Add(vcode.RRet)
	for _, r := range p.Persistent {
		s = s.Add(r)
	}
	return s
}

// Liveness runs backward liveness over the CFG. Blocks ending in OpJmpR
// are given a fully-live out-set (their successors are unknown).
func (c *CFG) Liveness() *Liveness {
	n := len(c.Blocks)
	lv := &Liveness{c: c, In: make([]vcode.RegSet, n), Out: make([]vcode.RegSet, n)}
	exit := exitLive(c.Prog)
	for changed := true; changed; {
		changed = false
		for b := n - 1; b >= 0; b-- {
			blk := &c.Blocks[b]
			out := vcode.RegSet(0)
			switch {
			case c.Prog.Insns[blk.Last()].Op == vcode.OpJmpR:
				out = ^vcode.RegSet(0)
			case len(blk.Succs) == 0:
				out = exit
			default:
				for _, s := range blk.Succs {
					out |= lv.In[s]
				}
			}
			in := out
			for pc := blk.End - 1; pc >= blk.Start; pc-- {
				insn := c.Prog.Insns[pc]
				in = in&^insn.Defs() | insn.Uses()
			}
			if in != lv.In[b] || out != lv.Out[b] {
				lv.In[b], lv.Out[b] = in, out
				changed = true
			}
		}
	}
	return lv
}

// LiveOutAt returns the registers live immediately after instruction pc
// (recomputed by walking the block backward; blocks are tiny).
func (lv *Liveness) LiveOutAt(pc int) vcode.RegSet {
	b := &lv.c.Blocks[lv.c.BlockOf[pc]]
	live := lv.Out[b.ID]
	for i := b.End - 1; i > pc; i-- {
		insn := lv.c.Prog.Insns[i]
		live = live&^insn.Defs() | insn.Uses()
	}
	return live
}
