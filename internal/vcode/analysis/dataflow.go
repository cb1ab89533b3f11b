package analysis

import "ashs/internal/vcode"

// Defs returns the registers an instruction writes. OpCall is modeled by
// the calling convention (it defines RRet); clients that must be sound
// against arbitrary syscall behaviour (the SFI optimizer) additionally
// invalidate everything at calls.
func Defs(in vcode.Insn) []vcode.Reg {
	switch in.Op {
	case vcode.OpNop, vcode.OpRet, vcode.OpJmp, vcode.OpJmpR,
		vcode.OpBeq, vcode.OpBne, vcode.OpBltU, vcode.OpBgeU,
		vcode.OpSt32, vcode.OpSt16, vcode.OpSt8, vcode.OpSt32X, vcode.OpSt8X,
		vcode.OpOutput32, vcode.OpSboxChk, vcode.OpChkDiv, vcode.OpChkBudget:
		return nil
	case vcode.OpCall:
		return []vcode.Reg{vcode.RRet}
	}
	return []vcode.Reg{in.Rd}
}

// Uses returns the registers an instruction reads.
func Uses(in vcode.Insn) []vcode.Reg {
	switch in.Op {
	case vcode.OpNop, vcode.OpRet, vcode.OpJmp, vcode.OpMovI,
		vcode.OpInput32, vcode.OpChkBudget:
		return nil
	case vcode.OpMov, vcode.OpBswap, vcode.OpAddIU, vcode.OpAndI, vcode.OpOrI,
		vcode.OpXorI, vcode.OpSllI, vcode.OpSrlI, vcode.OpSltIU,
		vcode.OpLd32, vcode.OpLd16, vcode.OpLd8,
		vcode.OpJmpR, vcode.OpOutput32, vcode.OpSboxMask, vcode.OpChkDiv:
		return []vcode.Reg{in.Rs}
	case vcode.OpSt32, vcode.OpSt16, vcode.OpSt8:
		return []vcode.Reg{in.Rs, in.Rt}
	case vcode.OpLd32X, vcode.OpLd8X:
		return []vcode.Reg{in.Rs, in.Rt}
	case vcode.OpSt32X, vcode.OpSt8X:
		return []vcode.Reg{in.Rs, in.Rt, in.Rd} // Rd is the stored value
	case vcode.OpBeq, vcode.OpBne, vcode.OpBltU, vcode.OpBgeU:
		return []vcode.Reg{in.Rs, in.Rt}
	case vcode.OpCall:
		return []vcode.Reg{vcode.RArg0, vcode.RArg1, vcode.RArg2, vcode.RArg3}
	case vcode.OpCksum32:
		return []vcode.Reg{in.Rd, in.Rs} // rd <- rd + rs
	case vcode.OpSboxChk:
		return []vcode.Reg{in.Rd}
	}
	// Three-register ALU forms (including the rejected signed/float ops).
	return []vcode.Reg{in.Rs, in.Rt}
}

// RegSet is a set of machine registers as a bitmask (NumRegs <= 32).
type RegSet uint32

// Has reports membership.
func (s RegSet) Has(r vcode.Reg) bool { return s&(1<<uint(r)) != 0 }

// Add returns s with r added.
func (s RegSet) Add(r vcode.Reg) RegSet { return s | 1<<uint(r) }

// Remove returns s without r.
func (s RegSet) Remove(r vcode.Reg) RegSet { return s &^ (1 << uint(r)) }

// Liveness holds per-block register liveness.
type Liveness struct {
	c *CFG
	// In[b]/Out[b]: registers live at block entry/exit.
	In, Out []RegSet
}

// exitLive is the set considered live when the handler returns: persistent
// registers survive to the next invocation, and the runtime reads RRet to
// distinguish consume from voluntary abort.
func exitLive(p *vcode.Program) RegSet {
	s := RegSet(0).Add(vcode.RRet)
	for _, r := range p.Persistent {
		s = s.Add(r)
	}
	return s
}

// Liveness runs backward liveness over the CFG. Blocks ending in OpJmpR
// are given a fully-live out-set (their successors are unknown).
func (c *CFG) Liveness() *Liveness {
	n := len(c.Blocks)
	lv := &Liveness{c: c, In: make([]RegSet, n), Out: make([]RegSet, n)}
	exit := exitLive(c.Prog)
	for changed := true; changed; {
		changed = false
		for b := n - 1; b >= 0; b-- {
			blk := &c.Blocks[b]
			out := RegSet(0)
			switch {
			case c.Prog.Insns[blk.Last()].Op == vcode.OpJmpR:
				out = ^RegSet(0)
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
				for _, d := range Defs(insn) {
					in = in.Remove(d)
				}
				for _, u := range Uses(insn) {
					in = in.Add(u)
				}
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
func (lv *Liveness) LiveOutAt(pc int) RegSet {
	b := &lv.c.Blocks[lv.c.BlockOf[pc]]
	live := lv.Out[b.ID]
	for i := b.End - 1; i > pc; i-- {
		insn := lv.c.Prog.Insns[i]
		for _, d := range Defs(insn) {
			live = live.Remove(d)
		}
		for _, u := range Uses(insn) {
			live = live.Add(u)
		}
	}
	return live
}
