package analysis

import (
	"sort"

	"ashs/internal/vcode"
)

// MaxCertSpan bounds how far apart two certified offsets may be for the
// contiguity argument to apply. Two checked addresses reg+a and reg+b
// (a <= b) certify every address between them because the SFI region is a
// single contiguous [base, limit) range — provided the walk from reg+a to
// reg+b does not wrap around 2^32. The system only creates regions that
// start at 0 (whole-address-space attach in core.Download) or end at least
// MaxCertSpan below 2^32 (test regions), so capping the certified span at
// MaxCertSpan keeps the argument airtight for both.
const MaxCertSpan = 4096

// Span is an inclusive range of certified immediate offsets for a base
// register (offsets are sign-extended int32 immediates).
type Span struct {
	Lo, Hi int64
}

// CheckSet tracks, at one program point, which address expressions are
// certified in-region by an already-executed bounds check: per base
// register, spans of certified reg+imm offsets; plus certified rs+rt
// register pairs for indexed addressing. It is the lattice element of the
// SFI optimizer's availability analysis — meet is intersection, a register
// definition kills the facts mentioning it, and OpCall kills everything.
//
// Top (the GFP initializer, "everything certified") is represented
// explicitly so loop-closing edges start optimistic.
type CheckSet struct {
	top    bool
	ranges map[vcode.Reg][]Span
	pairs  map[[2]vcode.Reg]bool
}

// NewCheckSet returns the empty set (nothing certified).
func NewCheckSet() *CheckSet {
	return &CheckSet{ranges: map[vcode.Reg][]Span{}, pairs: map[[2]vcode.Reg]bool{}}
}

// TopCheckSet returns the top element (everything certified); used only as
// the optimistic initializer of the greatest-fixpoint iteration.
func TopCheckSet() *CheckSet {
	s := NewCheckSet()
	s.top = true
	return s
}

// Clone deep-copies the set.
func (s *CheckSet) Clone() *CheckSet {
	n := NewCheckSet()
	n.CopyFrom(s)
	return n
}

// CopyFrom makes s equal to o in s's own storage: a register's spans reuse
// its slice when s already has one.
func (s *CheckSet) CopyFrom(o *CheckSet) {
	s.top = o.top
	for r := range s.ranges {
		if _, ok := o.ranges[r]; !ok {
			delete(s.ranges, r)
		}
	}
	for r, spans := range o.ranges {
		s.ranges[r] = append(s.ranges[r][:0], spans...)
	}
	clear(s.pairs)
	for p := range o.pairs {
		s.pairs[p] = true
	}
}

// Reset empties s in place: to top when top is set, else to nothing
// certified. A top set holds no facts, as TopCheckSet's does not.
func (s *CheckSet) Reset(top bool) {
	s.top = top
	clear(s.ranges)
	clear(s.pairs)
}

// Covers reports whether reg+imm is certified.
func (s *CheckSet) Covers(reg vcode.Reg, imm int64) bool {
	if s.top {
		return true
	}
	for _, sp := range s.ranges[reg] {
		if sp.Lo <= imm && imm <= sp.Hi {
			return true
		}
	}
	return false
}

// CoversPair reports whether the indexed address rs+rt is certified.
func (s *CheckSet) CoversPair(rs, rt vcode.Reg) bool {
	return s.top || s.pairs[[2]vcode.Reg{rs, rt}]
}

// AddSpan certifies reg+[lo,hi]. Spans whose combined hull stays within
// MaxCertSpan merge (any two certified points certify their hull).
func (s *CheckSet) AddSpan(reg vcode.Reg, lo, hi int64) {
	if s.top || hi-lo > MaxCertSpan {
		return
	}
	spans := append(s.ranges[reg], Span{lo, hi})
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	merged := spans[:1]
	for _, sp := range spans[1:] {
		last := &merged[len(merged)-1]
		if sp.Hi-last.Lo <= MaxCertSpan {
			if sp.Hi > last.Hi {
				last.Hi = sp.Hi
			}
		} else {
			merged = append(merged, sp)
		}
	}
	s.ranges[reg] = append([]Span(nil), merged...)
}

// AddPair certifies the indexed address rs+rt.
func (s *CheckSet) AddPair(rs, rt vcode.Reg) {
	if s.top {
		return
	}
	s.pairs[[2]vcode.Reg{rs, rt}] = true
}

// KillReg drops every fact mentioning reg (its value changed).
func (s *CheckSet) KillReg(reg vcode.Reg) {
	if s.top {
		return // callers only kill on concrete sets
	}
	delete(s.ranges, reg)
	for p := range s.pairs {
		if p[0] == reg || p[1] == reg {
			delete(s.pairs, p)
		}
	}
}

// Meet intersects o into s (the dataflow meet at a CFG merge: a fact holds
// only if it holds on every incoming path).
func (s *CheckSet) Meet(o *CheckSet) {
	if o.top {
		return
	}
	if s.top {
		s.CopyFrom(o)
		return
	}
	for r, spans := range s.ranges {
		inter := intersectSpans(spans, o.ranges[r])
		if len(inter) == 0 {
			delete(s.ranges, r)
		} else {
			s.ranges[r] = inter
		}
	}
	for p := range s.pairs {
		if !o.pairs[p] {
			delete(s.pairs, p)
		}
	}
}

func intersectSpans(a, b []Span) []Span {
	var out []Span
	for _, x := range a {
		for _, y := range b {
			lo, hi := x.Lo, x.Hi
			if y.Lo > lo {
				lo = y.Lo
			}
			if y.Hi < hi {
				hi = y.Hi
			}
			if lo <= hi {
				out = append(out, Span{lo, hi})
			}
		}
	}
	return out
}

// Equal reports structural equality (for fixpoint detection).
func (s *CheckSet) Equal(o *CheckSet) bool {
	if s.top != o.top {
		return false
	}
	if len(s.ranges) != len(o.ranges) || len(s.pairs) != len(o.pairs) {
		return false
	}
	for r, spans := range s.ranges {
		ospans, ok := o.ranges[r]
		if !ok || len(spans) != len(ospans) {
			return false
		}
		for i := range spans {
			if spans[i] != ospans[i] {
				return false
			}
		}
	}
	for p := range s.pairs {
		if !o.pairs[p] {
			return false
		}
	}
	return true
}
