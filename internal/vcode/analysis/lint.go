package analysis

import (
	"fmt"

	"ashs/internal/vcode"
)

// FindingKind classifies a lint finding.
type FindingKind int

const (
	// LintDeadStore: an instruction computes a register value that no
	// path ever reads before it is overwritten or the handler returns.
	LintDeadStore FindingKind = iota
	// LintDeadLoad: a memory load whose result is never read (the load
	// itself can still fault, so it is reported separately).
	LintDeadLoad
	// LintPersistentNeverRead: a register declared persistent is never
	// read by the program.
	LintPersistentNeverRead
	// LintUnboundedLoop: a loop with no statically provable trip bound;
	// under BudgetTimer the only thing stopping it is the watchdog.
	LintUnboundedLoop
)

var kindNames = map[FindingKind]string{
	LintDeadStore:           "dead store",
	LintDeadLoad:            "dead load",
	LintPersistentNeverRead: "persistent register never read",
	LintUnboundedLoop:       "unbounded loop",
}

// Finding is one lint diagnostic.
type Finding struct {
	Kind FindingKind
	PC   int // instruction index (-1 when not tied to one instruction)
	Reg  vcode.Reg
	Msg  string
}

// String renders the finding for reports.
func (f Finding) String() string {
	loc := "program"
	if f.PC >= 0 {
		loc = fmt.Sprintf("pc=%d", f.PC)
	}
	return fmt.Sprintf("%s: %s: %s", loc, kindNames[f.Kind], f.Msg)
}

// Lint analyzes a handler program and reports likely mistakes: dead
// stores and loads (wasted work on the paper's per-instruction-costed
// fast path), persistent registers that are never read, and loops the
// analysis cannot bound (which rely on the BudgetTimer watchdog or the
// software budget to terminate). It never reports on empty programs.
func Lint(p *vcode.Program) []Finding {
	var out []Finding
	if len(p.Insns) == 0 {
		return out
	}
	c := Build(p)
	lv := c.Liveness()

	// Dead stores/loads: a defined register not live after the def, from
	// an instruction with no other architectural effect worth keeping.
	for pc, in := range p.Insns {
		defs := in.Defs()
		if defs == 0 || in.Op == vcode.OpCall {
			continue
		}
		dead := (defs &^ lv.LiveOutAt(pc)).Remove(vcode.RZero)
		dead.Each(func(d vcode.Reg) {
			if in.Op.Is(vcode.Load) {
				out = append(out, Finding{LintDeadLoad, pc, d,
					fmt.Sprintf("value loaded into r%d is never read (%s)", d, in)})
			} else {
				out = append(out, Finding{LintDeadStore, pc, d,
					fmt.Sprintf("value written to r%d is never read (%s)", d, in)})
			}
		})
	}

	// Persistent registers never read anywhere.
	var used vcode.RegSet
	for _, in := range p.Insns {
		used |= in.Uses()
	}
	for _, r := range p.Persistent {
		if !used.Has(r) {
			out = append(out, Finding{LintPersistentNeverRead, -1, r,
				fmt.Sprintf("persistent r%d is declared but never read", r)})
		}
	}

	// Loops without a provable trip bound.
	if !c.HasIndirect {
		dom := c.Dominators()
		rng := c.Ranges()
		for _, l := range c.NaturalLoops(dom) {
			if _, ok := c.TripBound(&l, dom, rng); !ok {
				out = append(out, Finding{LintUnboundedLoop, c.Blocks[l.Header].Start, 0,
					"no statically bounded trip count; termination relies on the watchdog timer or software budget"})
			}
		}
	}
	return out
}
