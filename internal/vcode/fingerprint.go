package vcode

import (
	"crypto/sha256"
	"encoding/binary"
)

// Fingerprint returns a content hash of the program: the same bytes come
// back for any two programs with identical name, instruction stream,
// persistent-register set, and register allocation, regardless of how
// they were built. It is the program half of the sandbox compile-cache
// key (the policy contributes the other half), so every field that can
// influence verification, instrumentation, or execution is folded in.
func (p *Program) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var scratch [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	putStr := func(s string) {
		putU64(uint64(len(s)))
		h.Write([]byte(s))
	}
	putStr(p.Name)
	putU64(uint64(p.NextReg))
	putU64(uint64(len(p.Persistent)))
	for _, r := range p.Persistent {
		putU64(uint64(r))
	}
	putU64(uint64(len(p.Insns)))
	for _, in := range p.Insns {
		putU64(uint64(in.Op)<<24 | uint64(in.Rd)<<16 | uint64(in.Rs)<<8 | uint64(in.Rt))
		putU64(uint64(uint32(in.Imm)))
		putU64(uint64(int64(in.Target)))
		putStr(in.Sym.String()) // the name: an id depends on intern order
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
