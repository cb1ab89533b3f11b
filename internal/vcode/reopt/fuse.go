package reopt

import (
	"fmt"

	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// reserved registers that keep their identity across every member of a
// fused chain: the zero register, the handler calling convention
// (RRet, RArg0..3), and the two machine-reserved scratch registers.
func fuseReserved(r vcode.Reg) bool {
	switch r {
	case vcode.RZero, vcode.RRet, vcode.RArg0, vcode.RArg1, vcode.RArg2, vcode.RArg3,
		vcode.RSbox, vcode.RInput:
		return true
	}
	return false
}

// FuseChain splices two or more handler programs into one unit that runs
// them as back-to-back handlers would: members in order, stop at the first
// member that returns nonzero RRet (voluntary abort → deliver to user),
// consume when every member returns zero. Fusing amortizes the per-invocation
// sandbox entry/exit — one prologue, one epilogue, one timer arm/clear,
// one journal reset — across the whole chain.
//
// Legality (checked here; FuseChain fails rather than emit a wrong
// program):
//
//   - no member contains an indirect jump (segment splicing renumbers
//     instruction indices, which OpJmpR targets would not survive — and
//     the optimizing instrumenter refuses jmpr programs anyway);
//   - RRet is not live-in to any follower (the seam uses RRet to carry
//     the predecessor's verdict, so a follower reading RRet before
//     writing it would observe the predecessor, not its own state);
//   - every non-reserved register of a follower can be renamed above the
//     registers the head uses (members keep disjoint register files, so
//     one member's temporaries can never alias another's).
//
// The one semantic difference from an unfused chain is fault atomicity:
// members share a journal, so a fault in a later member also rolls back
// earlier members' writes. DESIGN.md §6 spells out this contract; the
// differential tests compare clean and voluntary-abort runs, where fused
// and sequential execution agree exactly.
func FuseChain(name string, progs ...*vcode.Program) (*vcode.Program, error) {
	if len(progs) < 2 {
		return nil, fmt.Errorf("reopt: fuse %q: need at least two programs, have %d", name, len(progs))
	}
	for _, p := range progs {
		if p == nil || len(p.Insns) == 0 {
			return nil, fmt.Errorf("reopt: fuse %q: empty member program", name)
		}
	}

	// Per-member register usage (semantic uses and defs only; unused Insn
	// fields hold RZero, which renames to itself).
	used := make([]vcode.RegSet, len(progs))
	for i, p := range progs {
		c := analysis.Build(p)
		if c.HasIndirect {
			return nil, fmt.Errorf("reopt: fuse %q: member %q contains an indirect jump", name, p.Name)
		}
		if i > 0 {
			lv := c.Liveness()
			if len(lv.In) > 0 && lv.In[0].Has(vcode.RRet) {
				return nil, fmt.Errorf("reopt: fuse %q: member %q reads RRet before writing it", name, p.Name)
			}
		}
		for _, in := range p.Insns {
			used[i] |= in.Defs() | in.Uses()
		}
	}

	// Fresh registers start above everything the head uses.
	cursor := vcode.Reg(8)
	for r := vcode.Reg(0); r < vcode.NumRegs; r++ {
		if used[0].Has(r) && !fuseReserved(r) && r+1 > cursor {
			cursor = r + 1
		}
	}
	alloc := func() (vcode.Reg, error) {
		for cursor < vcode.NumRegs && (cursor == vcode.RSbox || cursor == vcode.RInput) {
			cursor++
		}
		if cursor >= vcode.NumRegs {
			return 0, fmt.Errorf("reopt: fuse %q: out of registers", name)
		}
		r := cursor
		cursor++
		return r, nil
	}

	// Shadow copies of the four argument registers, saved at entry and
	// restored at every seam so each member sees the original message.
	var shadows [4]vcode.Reg
	for k := range shadows {
		r, err := alloc()
		if err != nil {
			return nil, err
		}
		shadows[k] = r
	}

	// Rename maps for followers: identity for reserved registers, fresh
	// registers for everything else the member touches.
	renames := make([][vcode.NumRegs]vcode.Reg, len(progs))
	for i := range progs {
		for r := vcode.Reg(0); r < vcode.NumRegs; r++ {
			renames[i][r] = r
		}
		if i == 0 {
			continue
		}
		for r := vcode.Reg(0); r < vcode.NumRegs; r++ {
			if used[i].Has(r) && !fuseReserved(r) {
				fresh, err := alloc()
				if err != nil {
					return nil, err
				}
				renames[i][r] = fresh
			}
		}
	}

	// Layout: 4 shadow saves, then members separated by 5-instruction
	// seams (verdict test + 4 argument restores), then the shared exit ret.
	const seamLen = 5
	base := make([]int, len(progs))
	base[0] = len(shadows)
	for i := 1; i < len(progs); i++ {
		base[i] = base[i-1] + len(progs[i-1].Insns) + seamLen
	}
	exitAt := base[len(progs)-1] + len(progs[len(progs)-1].Insns)

	fused := &vcode.Program{Name: name}
	args := [4]vcode.Reg{vcode.RArg0, vcode.RArg1, vcode.RArg2, vcode.RArg3}
	for k, s := range shadows {
		fused.Insns = append(fused.Insns, vcode.Insn{Op: vcode.OpMov, Rd: s, Rs: args[k]})
	}
	for i, p := range progs {
		if i > 0 {
			// Seam: stop the chain on a nonzero verdict, then restore args.
			fused.Insns = append(fused.Insns, vcode.Insn{Op: vcode.OpBne, Rs: vcode.RRet, Rt: vcode.RZero, Target: int32(exitAt)})
			for k, s := range shadows {
				fused.Insns = append(fused.Insns, vcode.Insn{Op: vcode.OpMov, Rd: args[k], Rs: s})
			}
		}
		rn := &renames[i]
		for _, in := range p.Insns {
			out := in
			out.Rd, out.Rs, out.Rt = rn[in.Rd], rn[in.Rs], rn[in.Rt]
			switch {
			case in.Op == vcode.OpRet && i < len(progs)-1:
				// Jump to the next member's seam, right after this segment.
				out = vcode.Insn{Op: vcode.OpJmp, Target: int32(base[i] + len(p.Insns))}
			case in.Op.Is(vcode.Branch):
				out.Target = in.Target + int32(base[i])
			}
			fused.Insns = append(fused.Insns, out)
		}
		for _, pr := range p.Persistent {
			fused.Persistent = append(fused.Persistent, rn[pr])
		}
	}
	fused.Insns = append(fused.Insns, vcode.Insn{Op: vcode.OpRet})
	fused.NextReg = cursor
	return fused, nil
}
