// Package sandbox makes downloaded handler code safe to run inside the
// kernel, implementing Section III-B of the paper ("Safe Execution").
//
// Safety has two halves:
//
//   - Verify performs the download-time checks: floating-point use and
//     trapping signed arithmetic are rejected outright (Section III-B1),
//     static branch targets must lie inside the program, only the kernel
//     entry points of EntryPoints may be called, and code may not contain
//     the sandbox's own reserved instructions (so handlers cannot forge
//     checks).
//
//   - Instrument rewrites the instruction stream with the software-based
//     fault isolation of Wahbe et al. [54]: every load and store is staged
//     through a dedicated register and bounds-checked (+2 instructions per
//     memory operation), divides gain zero checks, indirect jumps are
//     translated through a table, and — in software-budget mode — every
//     backward jump decrements an instruction budget (Section III-B3).
//     A general-purpose entry/exit sequence is added around the handler;
//     the paper notes this "overly general exit code" is a large fraction
//     of the added instructions.
//
// On x86 the paper uses segmentation hardware instead of software checks;
// HardwareX86 models that: verification still happens, but no instructions
// are added.
//
// As in the paper, a handler is verified and instrumented once. Sandbox
// memoizes builds by content and every later download of the same program
// under the same policy shares the first build, so a build is read-only: a
// caller may replace a field of its *Program but never writes into Code,
// Orig or JmpTable.
package sandbox

import (
	"fmt"

	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
	"ashs/internal/vcode/reopt"
)

// Hardware selects the protection mechanism of the target machine.
type Hardware int

const (
	// HardwareMIPS uses Wahbe-style software fault isolation.
	HardwareMIPS Hardware = iota
	// HardwareX86 uses segmentation and privilege rings: verification only,
	// no added instructions (footnote 1 of the paper).
	HardwareX86
)

// BudgetMode selects how execution time is bounded (Section III-B3).
type BudgetMode int

const (
	// BudgetTimer relies on the system clock: the runtime arms a watchdog
	// and aborts any ASH that uses two clock ticks or more. No instructions
	// are inserted; arming and clearing cost ~1 us each.
	BudgetTimer BudgetMode = iota
	// BudgetSoftware inserts a counter check at every backward jump.
	BudgetSoftware
)

// Policy configures verification and instrumentation.
type Policy struct {
	Hardware Hardware
	Budget   BudgetMode

	// Optimize enables the static-analysis SFI optimizer: redundant
	// address checks are elided when a dominating check already certifies
	// the address, loop-invariant checks are hoisted to a preheader, and
	// budget checks for statically bounded loops are coarsened into one
	// up-front drain. Programs containing indirect jumps fall back to the
	// naive per-reference instrumentation.
	Optimize bool

	// Profile, when non-nil, feeds the optimizer observed execution counts
	// (the paper's dynamic-code-generation loop). The profile only selects
	// among statically proven transformations — hoisting a loop-invariant
	// divide check, coarsening an exactly counted multi-block loop — so an
	// adversarial profile can change cost, never semantics. The compile
	// cache keys on the profile's SHA-256 fingerprint beside the policy's
	// other fields.
	Profile *reopt.Profile
}

// Entry/exit sequence lengths (instructions) around every instrumented
// handler. They reproduce the paper's observation that exit code dominates
// added instructions.
const (
	PrologueLen = 8
	EpilogueLen = 16
)

// DefaultPolicy returns the policy used by the ASH system: MIPS software
// protection and timer-based budgets.
func DefaultPolicy() *Policy {
	return &Policy{Hardware: HardwareMIPS, Budget: BudgetTimer}
}

// VerifyError reports why a program was rejected at download time.
type VerifyError struct {
	PC     int
	Insn   vcode.Insn
	Reason string
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("sandbox: rejected at pc=%d (%s): %s", e.PC, e.Insn, e.Reason)
}

// verifyProgram is the uncached implementation behind Verify. It returns
// the CFG it verified, which the optimizing instrumenter goes on to use.
func verifyProgram(p *vcode.Program) (*analysis.CFG, error) {
	n := len(p.Insns)
	for pc, in := range p.Insns {
		switch {
		case in.Op >= vcode.NumOps:
			return nil, &VerifyError{pc, in, "unknown opcode"}
		case in.Op.Is(vcode.Float):
			return nil, &VerifyError{pc, in, "floating-point instructions are disallowed at download time"}
		case in.Op.Is(vcode.Signed):
			return nil, &VerifyError{pc, in, "signed (trapping) arithmetic is disallowed; use unsigned forms"}
		case in.Op.Is(vcode.Reserved):
			return nil, &VerifyError{pc, in, "sandbox-reserved instruction in downloaded code"}
		case in.Op.Is(vcode.PipeOp):
			return nil, &VerifyError{pc, in, "pipe pseudo-op outside a pipe body"}
		case in.Op == vcode.OpCall:
			if !isEntryPoint(in.Sym) {
				return nil, &VerifyError{pc, in, fmt.Sprintf("call to %q is not an allowed system entry point", in.Sym.String())}
			}
		case in.Op.Is(vcode.Branch):
			if in.Target < 0 || int(in.Target) >= n {
				return nil, &VerifyError{pc, in, "static branch target outside program"}
			}
		}
		if !in.RegsInFile() {
			return nil, &VerifyError{pc, in, "register outside the register file"}
		}
		// Writes to reserved registers would subvert the SFI staging
		// register; reject them. The zero register is part of the staging:
		// an indexed access is rewritten to [RSbox + RZero] after RSbox has
		// been checked, and the machine stores to r0 like to any other
		// register, so a handler that wrote it would move the access by
		// what it wrote.
		if in.Defs().Has(vcode.RSbox) {
			return nil, &VerifyError{pc, in, "write to reserved sandbox register"}
		}
		if in.Defs().Has(vcode.RZero) {
			return nil, &VerifyError{pc, in, "write to the zero register"}
		}
	}
	if n == 0 || p.Insns[n-1].Op != vcode.OpRet {
		return nil, &VerifyError{n - 1, vcode.Insn{}, "program must end in ret"}
	}
	c := analysis.Build(p)
	return c, verifyCFG(c)
}

// verifyCFG runs the control-flow half of verification: code that cannot
// execute, control that can run past the end of the program, and indirect
// jumps whose target is not statically confined to the program ("jump-table
// discipline"). Straight-line checks have already passed, so branch targets
// are in range and the CFG is well formed.
func verifyCFG(c *analysis.CFG) error {
	p := c.Prog
	for _, b := range c.FallsOff {
		last := c.Blocks[b].Last()
		return &VerifyError{last, p.Insns[last], "control can fall through past the final ret"}
	}
	// Unreachable code has no legitimate purpose in a downloaded handler and
	// is a classic smuggling vector (e.g. gadgets reached only through an
	// unverified jump path) — reject it outright. When the program contains
	// an indirect jump, Reachable over-approximates by treating every block
	// as a potential target, so this check never mis-fires on jmpr targets.
	reach := c.Reachable()
	for b, ok := range reach {
		if !ok {
			pc := c.Blocks[b].Start
			return &VerifyError{pc, p.Insns[pc], "unreachable code"}
		}
	}
	// Indirect jumps must establish jump-table discipline: the target
	// register's value must be provably within the program at the jump, as
	// established by the interval analysis (e.g. a preceding movi, andi
	// mask, or bounded arithmetic). The table translation at run time then
	// maps the verified pre-instrumentation index to instrumented code.
	if c.HasIndirect {
		r := c.Ranges()
		for pc, in := range p.Insns {
			if in.Op != vcode.OpJmpR {
				continue
			}
			iv := r.Before(pc, in.Rs)
			if uint64(iv.Hi) >= uint64(len(p.Insns)) {
				return &VerifyError{pc, in,
					"indirect jump target not provably inside the program (jump-table discipline)"}
			}
		}
	}
	return nil
}

// Program is a verified, instrumented handler ready for installation. Its
// Orig, Code and JmpTable are shared with every other download of the same
// build and must not be written into; the struct itself is the caller's.
type Program struct {
	Orig *vcode.Program // pre-sandbox code (for instruction accounting)
	Code *vcode.Program // instrumented code actually executed

	// JmpTable translates pre-sandbox instruction indices (as used by
	// indirect jumps in the original code) to instrumented indices.
	JmpTable []int

	// AddedStatic is the number of instructions instrumentation added.
	AddedStatic int
	Policy      *Policy

	// Optimizer statistics (zero under naive instrumentation): address or
	// divide checks elided because a dominating check already certifies
	// them, check pairs hoisted into loop preheaders, and loops whose
	// per-iteration budget checks were coarsened into one up-front drain.
	ChecksElided    int
	ChecksHoisted   int
	BudgetCoarsened int

	// DivChecksHoisted counts divide sites whose zero check moved to a
	// loop preheader under a profile (zero without Policy.Profile).
	DivChecksHoisted int
}

// OrigCounts maps per-pc execution counts of Code (a machine's PCCounts)
// back through JmpTable to Orig's instruction indices: the coordinates a
// reopt.Profile is keyed by.
func (sp *Program) OrigCounts(pcCounts []uint64) []uint64 {
	counts := make([]uint64, len(sp.Orig.Insns))
	for old, inst := range sp.JmpTable {
		if old < len(counts) && inst >= 0 && inst < len(pcCounts) {
			counts[old] = pcCounts[inst]
		}
	}
	return counts
}

// compile is the uncached instrumentation behind Sandbox, which has already
// verified p, its verdict's copy of the caller's program, and passes the
// CFG it verified (nil when the verdict was cached). The build keeps p as
// its Orig.
func compile(p *vcode.Program, pol *Policy, c *analysis.CFG) (*Program, error) {
	if pol.Hardware == HardwareX86 {
		// Segmentation hardware isolates the handler: no software checks,
		// so the code that runs is the original itself.
		return &Program{Orig: p, Code: p, JmpTable: identity(len(p.Insns)), Policy: pol}, nil
	}

	var (
		out      []vcode.Insn
		oldToNew []int
		st       optStats
	)
	if pol.Optimize {
		if c == nil {
			c = analysis.Build(p)
		}
		var ok bool
		out, oldToNew, st, ok = instrumentOptimized(c, pol)
		if !ok {
			out, oldToNew = instrumentNaive(p, pol)
		}
	} else {
		out, oldToNew = instrumentNaive(p, pol)
	}

	code := &vcode.Program{
		Name:       p.Name + ".sandboxed",
		Insns:      out,
		Persistent: p.Persistent,
		NextReg:    p.NextReg,
	}
	sp := &Program{
		Orig:             p,
		Code:             code,
		JmpTable:         oldToNew,
		AddedStatic:      len(out) - len(p.Insns),
		Policy:           pol,
		ChecksElided:     st.elided,
		ChecksHoisted:    st.hoisted,
		BudgetCoarsened:  st.coarsened,
		DivChecksHoisted: st.divHoisted,
	}
	if err := checkEpilogues(sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// checkEpilogues is a self-check on the instrumented output: every ret must
// be preceded by the full exit sequence, and no control transfer may land
// inside it (skipping part of the exit code). A failure indicates an
// instrumenter bug, not a bad input program.
func checkEpilogues(sp *Program) error {
	code := sp.Code.Insns
	epi := EpilogueLen
	interior := make([]bool, len(code))
	for i, in := range code {
		if in.Op != vcode.OpRet {
			continue
		}
		if i < epi {
			return fmt.Errorf("sandbox: internal error: ret at %d has no room for the exit sequence", i)
		}
		for j := i - epi; j < i; j++ {
			if code[j].Op != vcode.OpNop {
				return fmt.Errorf("sandbox: internal error: ret at %d not preceded by the exit sequence", i)
			}
		}
		for j := i - epi + 1; j <= i; j++ {
			interior[j] = true
		}
	}
	intoInterior := func(t int) bool { return t >= 0 && t < len(interior) && interior[t] }
	for i, in := range code {
		if in.Op.Is(vcode.Branch) && intoInterior(int(in.Target)) {
			return fmt.Errorf("sandbox: internal error: branch at %d jumps into an exit sequence", i)
		}
	}
	for old, t := range sp.JmpTable {
		if intoInterior(t) {
			return fmt.Errorf("sandbox: internal error: jump table entry %d lands inside an exit sequence", old)
		}
	}
	return nil
}

// instrumentNaive is the baseline Wahbe-style rewrite: every memory
// operation is staged and checked, every divide gets a zero check, and (in
// software-budget mode) every backward jump drains the budget.
func instrumentNaive(p *vcode.Program, pol *Policy) ([]vcode.Insn, []int) {
	out := make([]vcode.Insn, 0, naiveLen(p))
	oldToNew := make([]int, len(p.Insns))

	// Entry sequence: establish the sandbox context (modeled as generic
	// register save/establish operations; cf. "overly general exit code").
	for i := 0; i < PrologueLen; i++ {
		out = append(out, vcode.Insn{Op: vcode.OpNop})
	}

	for pc, in := range p.Insns {
		oldToNew[pc] = len(out)
		switch {
		case in.Op.Is(vcode.Load | vcode.Store):
			// Stage the effective address through RSbox and bounds-check
			// it: +2 instructions per memory operation (Wahbe et al.).
			if in.Op.Is(vcode.Indexed) {
				out = append(out,
					vcode.Insn{Op: vcode.OpAddU, Rd: vcode.RSbox, Rs: in.Rs, Rt: in.Rt},
					vcode.Insn{Op: vcode.OpSboxChk, Rd: vcode.RSbox},
				)
				rewritten := in
				rewritten.Rs = vcode.RSbox
				rewritten.Rt = vcode.RZero // address fully staged in RSbox
				out = append(out, rewritten)
			} else {
				out = append(out,
					vcode.Insn{Op: vcode.OpSboxMask, Rd: vcode.RSbox, Rs: in.Rs, Imm: in.Imm},
					vcode.Insn{Op: vcode.OpSboxChk, Rd: vcode.RSbox},
				)
				rewritten := in
				rewritten.Rs = vcode.RSbox
				rewritten.Imm = 0
				out = append(out, rewritten)
			}
		case in.Op == vcode.OpDivU || in.Op == vcode.OpRemU:
			out = append(out,
				vcode.Insn{Op: vcode.OpChkDiv, Rs: in.Rt},
				in,
			)
		case in.Op == vcode.OpRet:
			for i := 0; i < EpilogueLen; i++ {
				out = append(out, vcode.Insn{Op: vcode.OpNop})
			}
			out = append(out, in)
		default:
			out = append(out, in)
		}
	}

	// Retarget static branches using oldToNew.
	for i := range out {
		if out[i].Op.Is(vcode.Branch) {
			out[i].Target = int32(oldToNew[out[i].Target])
		}
	}

	if pol.Budget == BudgetSoftware {
		out, _ = insertBudgetChecks(out, oldToNew, nil)
	}
	return out, oldToNew
}

// naiveLen is the length of instrumentNaive's code before budget checks:
// the prologue, then 3 slots per load or store, 2 per divide or remainder,
// the exit sequence and the ret per ret, and 1 for any other instruction.
func naiveLen(p *vcode.Program) int {
	n := PrologueLen
	for _, in := range p.Insns {
		switch {
		case in.Op.Is(vcode.Load | vcode.Store):
			n += 3
		case in.Op == vcode.OpDivU || in.Op == vcode.OpRemU:
			n += 2
		case in.Op == vcode.OpRet:
			n += EpilogueLen + 1
		default:
			n++
		}
	}
	return n
}

func identity(n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = i
	}
	return t
}

// insertBudgetChecks adds an OpChkBudget before every backward branch
// (Section III-B3: "software checks at all backward jump locations")
// except those whose index exempt reports; exempt may be nil. The check's
// Imm approximates the loop body length so the budget drains in proportion
// to work done. It remaps oldToNew in place and returns the new code and
// the map from each index of code to its index in the new code.
func insertBudgetChecks(code []vcode.Insn, oldToNew []int, exempt func(i int) bool) ([]vcode.Insn, []int) {
	isBackward := func(i int) bool {
		return code[i].Op.Is(vcode.Branch) && int(code[i].Target) <= i && (exempt == nil || !exempt(i))
	}
	// Map from current index to final index after insertions. For a
	// backward branch, the mapped position is the inserted ChkBudget, not
	// the branch itself: any jump landing on the branch (including a
	// self-loop) must pass through the check, or a runaway loop could
	// skip budget accounting entirely.
	shift := make([]int, len(code)+1)
	added := 0
	for i := range code {
		shift[i] = i + added
		if isBackward(i) {
			added++
		}
	}
	shift[len(code)] = len(code) + added

	out := make([]vcode.Insn, 0, len(code)+added)
	for i, in := range code {
		if isBackward(i) {
			body := int32(i) - in.Target + 1
			out = append(out, vcode.Insn{Op: vcode.OpChkBudget, Imm: body})
		}
		out = append(out, in)
	}
	// Retarget branches to shifted positions.
	for i := range out {
		if out[i].Op.Is(vcode.Branch) {
			out[i].Target = int32(shift[out[i].Target])
		}
	}
	for i, v := range oldToNew {
		oldToNew[i] = shift[v]
	}
	return out, shift
}

// Attach configures machine m to run the sandboxed program: the SFI region,
// the jump-translation table, and (in timer mode) nothing further — the
// caller arms the watchdog via CycleLimit.
func (sp *Program) Attach(m *vcode.Machine, base, limit uint32, budget int64) {
	m.SboxBase, m.SboxLimit = base, limit
	m.JmpTable = sp.JmpTable
	if sp.Policy.Budget == BudgetSoftware {
		m.SoftBudget = budget
	}
}
