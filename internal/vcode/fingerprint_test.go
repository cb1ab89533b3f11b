package vcode

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// keyBase is a program with every field Fingerprint reads set to a value
// a one-field change can move: two persistent registers, a call, a branch;
// pad instructions follow, so the fields can sit in a chunk written before
// the last one.
func keyBase(pad int) *Program {
	p := &Program{
		Name:       "key",
		NextReg:    12,
		Persistent: []Reg{5, 6},
		Insns: []Insn{
			{Op: OpMovI, Rd: 8, Imm: -7},
			{Op: OpAddIU, Rd: 9, Rs: 8, Imm: 4},
			{Op: OpCall, Sym: Intern("ash_send")},
			{Op: OpBltU, Rs: 9, Rt: 8, Target: 1},
			{Op: OpRet},
		},
	}
	for i := 0; i < pad; i++ {
		p.Insns = append(p.Insns, Insn{Op: OpAddIU, Rd: 9, Rs: 9, Imm: 1})
	}
	return p
}

// keyPads are keyBase's paddings: none, and enough that the encoding spans
// three chunks.
var keyPads = []int{0, 3 * fingerprintChunk / insnKeyBytes}

// TestFingerprintSeesEveryField: programs that differ in exactly one field
// — the name, NextReg, a persistent register or their number, the number
// of instructions, or any field of one instruction — have distinct keys.
func TestFingerprintSeesEveryField(t *testing.T) {
	long := strings.Repeat("n", 3*fingerprintChunk)
	variants := map[string]func(p *Program){
		"base":                 func(p *Program) {},
		"name":                 func(p *Program) { p.Name = "kez" },
		"name empty":           func(p *Program) { p.Name = "" },
		"name longer":          func(p *Program) { p.Name = "key\x00" },
		"name past a chunk":    func(p *Program) { p.Name = long },
		"name past a chunk'":   func(p *Program) { p.Name = long[1:] + "m" },
		"NextReg":              func(p *Program) { p.NextReg++ },
		"persistent entry":     func(p *Program) { p.Persistent[1] = 7 },
		"persistent more":      func(p *Program) { p.Persistent = append(p.Persistent, 7) },
		"persistent fewer":     func(p *Program) { p.Persistent = p.Persistent[:1] },
		"persistent none":      func(p *Program) { p.Persistent = nil },
		"insn more":            func(p *Program) { p.Insns = append(p.Insns, Insn{}) },
		"insn fewer":           func(p *Program) { p.Insns = p.Insns[:len(p.Insns)-1] },
		"insn Op":              func(p *Program) { p.Insns[0].Op = OpAddIU },
		"insn Rd":              func(p *Program) { p.Insns[0].Rd++ },
		"insn Rs":              func(p *Program) { p.Insns[1].Rs++ },
		"insn Rt":              func(p *Program) { p.Insns[3].Rt++ },
		"insn Imm":             func(p *Program) { p.Insns[0].Imm = 7 },
		"insn Imm high":        func(p *Program) { p.Insns[1].Imm ^= -1 << 31 },
		"insn Target":          func(p *Program) { p.Insns[3].Target = 0 },
		"insn Target high":     func(p *Program) { p.Insns[3].Target ^= -1 << 31 },
		"insn Sym":             func(p *Program) { p.Insns[2].Sym = Intern("ash_copy") },
		"insn Sym none":        func(p *Program) { p.Insns[2].Sym = 0 },
		"insn Sym on non-call": func(p *Program) { p.Insns[4].Sym = Intern("ash_send") },
	}
	for _, pad := range keyPads {
		seen := map[uint64]string{}
		for name, mutate := range variants {
			p := keyBase(pad)
			mutate(p)
			fp := p.Fingerprint()
			if other, dup := seen[fp]; dup {
				t.Errorf("pad %d: %q and %q share a fingerprint", pad, name, other)
			}
			seen[fp] = name
		}
	}
}

// insnKey is in's 16-byte encoding in a key: Op Rd Rs Rt, Imm, Target,
// Sym, little-endian.
func insnKey(in Insn) string {
	var b [insnKeyBytes]byte
	b[0], b[1], b[2], b[3] = byte(in.Op), byte(in.Rd), byte(in.Rs), byte(in.Rt)
	binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
	binary.LittleEndian.PutUint32(b[8:], uint32(in.Target))
	binary.LittleEndian.PutUint32(b[12:], uint32(in.Sym))
	return string(b[:])
}

// TestFingerprintLengthPrefixes: each pair holds the same bytes, split
// differently between the name or the persistent set and the fields after
// it. Without the length prefixes a pair would encode identically.
func TestFingerprintLengthPrefixes(t *testing.T) {
	pairs := []struct {
		name string
		a, b func(p *Program)
	}{
		{
			// "k" | NextReg 03 | 01 02
			// "k" 03 | NextReg 01 | 02
			"the name takes in NextReg and a persistent register",
			func(p *Program) { p.Name, p.NextReg, p.Persistent = "k", 3, []Reg{1, 2} },
			func(p *Program) { p.Name, p.NextReg, p.Persistent = "k\x03", 1, []Reg{2} },
		},
		{
			// "key" | NextReg 0c | 05 06 | movi r8, -7 (16 bytes, Sym 0) | ...
			// "key" 0c 05 06 + its first 13 bytes | NextReg 00 | 00 00 | ...
			// Both hold two persistent registers.
			"the name takes in NextReg, the persistent registers and an instruction",
			func(p *Program) {},
			func(p *Program) {
				p.Name = "key\x0c\x05\x06" + insnKey(p.Insns[0])[:13]
				p.NextReg, p.Persistent = 0, []Reg{0, 0}
				p.Insns = p.Insns[1:]
			},
		},
		{
			// 05 06 | movi r8, -7 | ...
			// 05 06 + movi r8, -7 as 16 registers | ...
			"the persistent set takes in an instruction",
			func(p *Program) {},
			func(p *Program) {
				for _, c := range []byte(insnKey(p.Insns[0])) {
					p.Persistent = append(p.Persistent, Reg(c))
				}
				p.Insns = p.Insns[1:]
			},
		},
	}
	for _, pad := range keyPads {
		for _, c := range pairs {
			a, b := keyBase(pad), keyBase(pad)
			c.a(a)
			c.b(b)
			if a.Fingerprint() == b.Fingerprint() {
				t.Errorf("pad %d: %s: the two splits share a fingerprint", pad, c.name)
			}
		}
	}
}

// keyProgram builds n instructions, a call every third one when calls is
// set, with a builder of its own.
func keyProgram(n int, calls bool) *Program {
	b := NewBuilder("straddle")
	acc := b.Persistent()
	r := b.Temp()
	for i := 0; i < n-1; i++ { // and the Ret Assemble appends
		switch {
		case calls && i%3 == 0:
			b.Call(fmt.Sprintf("entry%d", i%7))
		case i%2 == 0:
			b.AddIU(r, r, int32(i))
		default:
			b.AddU(acc, acc, r)
		}
	}
	return b.MustAssemble()
}

// TestFingerprintIsContent: the same content fingerprints the same however
// it was made — cloned, or built twice — at lengths whose encoding ends
// on, just short of, and just past a chunk boundary.
func TestFingerprintIsContent(t *testing.T) {
	seen := map[uint64]string{}
	for n := 30; n <= 50; n++ {
		for _, calls := range []bool{false, true} {
			p, q := keyProgram(n, calls), keyProgram(n, calls)
			if len(p.Insns) != n {
				t.Fatalf("built %d instructions, want %d", len(p.Insns), n)
			}
			fp := p.Fingerprint()
			if q.Fingerprint() != fp || p.Clone().Fingerprint() != fp {
				t.Errorf("n=%d calls=%v: equal programs fingerprint differently", n, calls)
			}
			label := fmt.Sprintf("n=%d calls=%v", n, calls)
			if other, dup := seen[fp]; dup {
				t.Errorf("%s and %s share a fingerprint", label, other)
			}
			seen[fp] = label
		}
	}
}

// TestFingerprintAllocatesNothing: the encoding buffer is on the stack and
// does not grow with the program, so a compile-cache hit on a long handler
// costs what one on a short handler does.
func TestFingerprintAllocatesNothing(t *testing.T) {
	p := keyProgram(800, true)
	if allocs := testing.AllocsPerRun(100, func() { p.Fingerprint() }); allocs != 0 {
		t.Errorf("Fingerprint of %d instructions allocates %v times, want 0", len(p.Insns), allocs)
	}
}
