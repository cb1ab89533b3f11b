package vcode

import (
	"crypto/sha256"
	"encoding/binary"
)

// fingerprintChunk is the stack buffer Fingerprint encodes into; each full
// chunk is one Write to the digest, so a key costs one hash pass over the
// encoding and a Write per chunk, not one per field. It does not grow with
// the program.
const fingerprintChunk = 512

// insnKeyBytes is an instruction's fixed-width encoding: Op, Rd, Rs, Rt a
// byte each, Imm and Target four bytes each, and the length of its Sym's
// name in four (the name's bytes follow).
const insnKeyBytes = 16

// Fingerprint returns a content hash of the program: the same bytes come
// back for any two programs with identical name, instruction stream,
// persistent-register set, and register allocation, regardless of how
// they were built. It is the program half of the sandbox compile-cache
// key (the policy contributes the other half), so every field that can
// influence verification, instrumentation, or execution is folded in.
//
// The fields are encoded at fixed widths, and both strings (the name and
// a call's entry-point name; a Sym is hashed by name, as its id depends on
// intern order) carry their length first, so the encoding is injective and
// two programs share a key only if SHA-256 collides. The key stays a
// cryptographic hash because a collision would hand one program the
// verified build of another.
func (p *Program) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var buf [fingerprintChunk]byte
	n := 0
	// room flushes the chunk unless k more bytes fit.
	room := func(k int) {
		if n+k > len(buf) {
			h.Write(buf[:n])
			n = 0
		}
	}
	putStr := func(s string) {
		for len(s) > 0 {
			room(1)
			c := copy(buf[n:], s)
			n += c
			s = s[c:]
		}
	}
	binary.LittleEndian.PutUint64(buf[n:], uint64(len(p.Name)))
	n += 8
	putStr(p.Name)
	room(9)
	buf[n] = byte(p.NextReg)
	binary.LittleEndian.PutUint64(buf[n+1:], uint64(len(p.Persistent)))
	n += 9
	for _, r := range p.Persistent {
		room(1)
		buf[n] = byte(r)
		n++
	}
	room(8)
	binary.LittleEndian.PutUint64(buf[n:], uint64(len(p.Insns)))
	n += 8
	for i := range p.Insns {
		in := &p.Insns[i]
		room(insnKeyBytes)
		b := buf[n : n+insnKeyBytes]
		b[0], b[1], b[2], b[3] = byte(in.Op), byte(in.Rd), byte(in.Rs), byte(in.Rt)
		binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
		binary.LittleEndian.PutUint32(b[8:], uint32(in.Target))
		var sym string
		if in.Sym != 0 { // most instructions call nothing: skip the call to String
			sym = in.Sym.String()
		}
		binary.LittleEndian.PutUint32(b[12:], uint32(len(sym)))
		n += insnKeyBytes
		putStr(sym)
	}
	h.Write(buf[:n])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
