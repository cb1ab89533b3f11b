package vcode

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
)

// fingerprintSeed keys every Fingerprint of this process. A fingerprint is
// never written out or printed, so it need not agree across processes.
var fingerprintSeed = maphash.MakeSeed()

// fingerprintChunk is the stack chunk Fingerprint encodes instructions
// into, insnKeyBytes bytes each.
const (
	fingerprintChunk = 512
	insnKeyBytes     = 16
)

// Fingerprint returns a 64-bit hash of the program's content: its name,
// register allocation, persistent-register set and instruction stream.
// Programs that are Equal hash alike however they were built. It is the
// program half of the sandbox compile-cache key, and it is not
// collision-free: the cache counts a hit only once Equal confirms it, so a
// collision costs a miss, never another program's build. A call's Sym is
// hashed by id, which names one entry point for the life of the process.
// The name and the persistent set are length-prefixed and every other field
// has a fixed width, so the encoding is injective: only the 64-bit hash
// itself can collide.
//
// The instructions are encoded 16 bytes each into a stack chunk that goes
// to the hash one Write at a time, so a key allocates nothing at any size.
func (p *Program) Fingerprint() uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	var buf [fingerprintChunk]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(p.Name)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(p.Persistent)))
	h.Write(buf[:16])
	h.WriteString(p.Name)
	h.WriteByte(byte(p.NextReg))
	for _, r := range p.Persistent {
		h.WriteByte(byte(r))
	}
	n := 0
	for i := range p.Insns {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		in := &p.Insns[i]
		binary.LittleEndian.PutUint64(buf[n:], uint64(in.Op)|uint64(in.Rd)<<8|uint64(in.Rs)<<16|
			uint64(in.Rt)<<24|uint64(uint32(in.Imm))<<32)
		binary.LittleEndian.PutUint64(buf[n+8:], uint64(uint32(in.Target))|uint64(in.Sym)<<32)
		n += insnKeyBytes
	}
	h.Write(buf[:n])
	return h.Sum64()
}

// Equal reports whether p and q have the same content, field for field:
// what Fingerprint hashes, compared in full.
func (p *Program) Equal(q *Program) bool {
	return p.Name == q.Name && p.NextReg == q.NextReg &&
		slices.Equal(p.Persistent, q.Persistent) && slices.Equal(p.Insns, q.Insns)
}
