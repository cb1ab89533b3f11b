package analysis

import "ashs/internal/vcode"

// Interval is an inclusive unsigned range [Lo, Hi]. The top element is
// [0, 2^32-1]; there is no bottom — registers always hold some value
// (machine registers persist across runs, so even at entry nothing is
// known beyond Top).
type Interval struct {
	Lo, Hi uint32
}

// Top is the unconstrained interval.
var Top = Interval{0, ^uint32(0)}

// Exact returns the value and true when the interval is a single point.
func (iv Interval) Exact() (uint32, bool) { return iv.Lo, iv.Lo == iv.Hi }

// Union returns the convex hull of two intervals (the join at a CFG merge:
// the value may come from either path).
func (iv Interval) Union(o Interval) Interval {
	if o.Lo < iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi > iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

func exact(v uint32) Interval { return Interval{v, v} }

// addInterval computes the interval of a+b under 32-bit wrapping: if the
// sum range straddles 2^32 the result wraps partially and collapses to Top.
func addInterval(a, b Interval) Interval {
	lo := uint64(a.Lo) + uint64(b.Lo)
	hi := uint64(a.Hi) + uint64(b.Hi)
	const m = uint64(1) << 32
	if lo < m && hi >= m {
		return Top
	}
	return Interval{uint32(lo % m), uint32(hi % m)}
}

// subInterval computes a-b under wrapping.
func subInterval(a, b Interval) Interval {
	lo := int64(a.Lo) - int64(b.Hi)
	hi := int64(a.Hi) - int64(b.Lo)
	if lo < 0 && hi >= 0 {
		return Top
	}
	const m = int64(1) << 32
	return Interval{uint32((lo + m) % m), uint32((hi + m) % m)}
}

// RegIntervals is the abstract register file.
type RegIntervals [vcode.NumRegs]Interval

// allTop returns an unconstrained register file.
func allTop() RegIntervals {
	var r RegIntervals
	for i := range r {
		r[i] = Top
	}
	return r
}

// Ranges is the result of the forward interval analysis: for every block,
// the abstract register file at entry and exit. The analysis is path- and
// branch-insensitive (no refinement from branch conditions) and treats
// OpCall as clobbering every register — kernel entry points receive the
// machine and may write anything.
type Ranges struct {
	c       *CFG
	In, Out []RegIntervals
}

// step applies one instruction to the abstract register file.
func step(r *RegIntervals, in vcode.Insn) {
	iv := func(reg vcode.Reg) Interval { return r[reg] }
	set := func(reg vcode.Reg, v Interval) { r[reg] = v }
	switch in.Op {
	case vcode.OpMovI:
		set(in.Rd, exact(uint32(in.Imm)))
	case vcode.OpMov:
		set(in.Rd, iv(in.Rs))
	case vcode.OpAddU:
		set(in.Rd, addInterval(iv(in.Rs), iv(in.Rt)))
	case vcode.OpSubU:
		set(in.Rd, subInterval(iv(in.Rs), iv(in.Rt)))
	case vcode.OpAddIU, vcode.OpSboxMask:
		set(in.Rd, addInterval(iv(in.Rs), exact(uint32(in.Imm))))
	case vcode.OpAnd:
		hi := iv(in.Rs).Hi
		if h := iv(in.Rt).Hi; h < hi {
			hi = h
		}
		set(in.Rd, Interval{0, hi})
	case vcode.OpAndI:
		hi := iv(in.Rs).Hi
		if m := uint32(in.Imm); m < hi {
			hi = m
		}
		set(in.Rd, Interval{0, hi})
	case vcode.OpSltU, vcode.OpSltIU:
		set(in.Rd, Interval{0, 1})
	case vcode.OpSllI:
		s := uint32(in.Imm) & 31
		a := iv(in.Rs)
		if a.Hi <= ^uint32(0)>>s {
			set(in.Rd, Interval{a.Lo << s, a.Hi << s})
		} else {
			set(in.Rd, Top)
		}
	case vcode.OpSrlI:
		s := uint32(in.Imm) & 31
		a := iv(in.Rs)
		set(in.Rd, Interval{a.Lo >> s, a.Hi >> s})
	case vcode.OpSrl:
		set(in.Rd, Interval{0, iv(in.Rs).Hi})
	case vcode.OpMulU:
		a, b := iv(in.Rs), iv(in.Rt)
		if hi := uint64(a.Hi) * uint64(b.Hi); hi <= uint64(^uint32(0)) {
			set(in.Rd, Interval{a.Lo * b.Lo, uint32(hi)})
		} else {
			set(in.Rd, Top)
		}
	case vcode.OpDivU:
		a, b := iv(in.Rs), iv(in.Rt)
		if b.Hi == 0 {
			// Divisor provably zero: the divide always faults and the
			// post-state is unreachable; any value is sound.
			set(in.Rd, Top)
			break
		}
		den := b.Lo
		if den == 0 {
			den = 1 // divisor 0 faults; the surviving path has rt >= 1
		}
		set(in.Rd, Interval{a.Lo / b.Hi, a.Hi / den})
	case vcode.OpRemU:
		b := iv(in.Rt)
		hi := b.Hi
		if hi > 0 {
			hi--
		}
		set(in.Rd, Interval{0, hi})
	case vcode.OpLd8, vcode.OpLd8X:
		set(in.Rd, Interval{0, 0xff})
	case vcode.OpLd16:
		set(in.Rd, Interval{0, 0xffff})
	case vcode.OpCall:
		// Syscalls may write any register.
		*r = allTop()
	default:
		// Anything else that defines a register produces an unknown value
		// (loads, or/xor/nor, cksum32, bswap, reg-count shifts, ...).
		in.Defs().Each(func(d vcode.Reg) { set(d, Top) })
	}
}

// widenRounds is how many times a block may change before its changing
// registers are widened straight to Top, guaranteeing termination.
const widenRounds = 4

// Ranges runs the forward interval analysis to a fixpoint.
func (c *CFG) Ranges() *Ranges {
	n := len(c.Blocks)
	r := &Ranges{c: c, In: make([]RegIntervals, n), Out: make([]RegIntervals, n)}
	if n == 0 {
		return r
	}
	visited := make([]bool, n)
	rounds := make([]int, n)
	r.In[0] = allTop() // entry: register contents unknown (they persist)
	r.Out[0] = r.In[0]
	visited[0] = true
	order := c.RPO()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in := RegIntervals{}
			first := true
			if b == 0 {
				in = allTop()
				first = false
			}
			for _, p := range c.Blocks[b].Preds {
				if !visited[p] {
					continue
				}
				if first {
					in = r.Out[p]
					first = false
				} else {
					for i := range in {
						in[i] = in[i].Union(r.Out[p][i])
					}
				}
			}
			if first {
				continue // no visited predecessor yet
			}
			out := in
			for pc := c.Blocks[b].Start; pc < c.Blocks[b].End; pc++ {
				step(&out, c.Prog.Insns[pc])
			}
			if !visited[b] || in != r.In[b] || out != r.Out[b] {
				rounds[b]++
				if rounds[b] > widenRounds {
					for i := range out {
						if visited[b] && out[i] != r.Out[b][i] {
							out[i] = Top
						}
						if visited[b] && in[i] != r.In[b][i] {
							in[i] = Top
						}
					}
				}
				if visited[b] && in == r.In[b] && out == r.Out[b] {
					continue
				}
				r.In[b], r.Out[b] = in, out
				visited[b] = true
				changed = true
			}
		}
	}
	return r
}

// Before returns the interval of reg immediately before instruction pc,
// by replaying the block prefix from the block's entry state.
func (r *Ranges) Before(pc int, reg vcode.Reg) Interval {
	b := &r.c.Blocks[r.c.BlockOf[pc]]
	regs := r.In[b.ID]
	for i := b.Start; i < pc; i++ {
		step(&regs, r.c.Prog.Insns[i])
	}
	return regs[reg]
}
