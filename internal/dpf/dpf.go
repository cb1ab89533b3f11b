// Package dpf implements the dynamic packet filter engine that securely
// exports the Ethernet device in the paper's testbed (Section IV-A).
//
// DPF [Engler & Kaashoek, SIGCOMM'96] exploits dynamic code generation in
// two ways: it compiles packet filters to executable code when they are
// installed (eliminating interpretation overhead), and it uses the filter's
// constants to aggressively optimize that code. Our analog of "compiling to
// executable code" is merging every installed filter's atoms into one
// discrimination trie at install time (Engine), each trie step priced as a
// specialized compare (CompiledCyclesPerAtom); the MPF-style baseline
// (Interpret) walks a generic atom list with fetch/decode/dispatch overhead,
// so the order-of-magnitude gap the paper reports is reproduced in both
// modeled cycles and wall-clock benchmarks.
//
// The trie is stored flat: nodes, branches, per-id filter records and
// filter values in index-addressed slabs of 4096-entry pages (the first
// page grows by append, later ones are allocated whole), a branch's
// children inline up to two and in an open-addressed integer table beyond.
// A filter is stored as shape + values, as DPF compiles it: its shape, the
// (offset, size, mask) of each atom, is held once for every filter with
// that layout, and the filter keeps only its constants, 4 bytes an atom.
// Insert copies the filter and allocates nothing per call; InsertBatch
// installs many as one step, building the trie a node at a time. Ids
// ascend and are never reused, at 8 bytes per id ever issued; everything
// else Remove frees is reused, a shape's record once its last filter
// goes.
//
// A filter is a conjunction of atoms, each comparing a masked big-endian
// field at a fixed offset against a constant — the shape of every demux
// decision in this repository (Ethernet type, IP protocol, UDP/TCP ports).
package dpf

import (
	"fmt"

	"ashs/internal/sim"
)

// Atom is one masked-compare predicate: pkt[Offset:Offset+Size] & Mask == Value.
type Atom struct {
	Offset int    // byte offset into the packet
	Size   int    // field width: 1, 2 or 4 bytes (big-endian)
	Mask   uint32 // applied before comparison (0 means "all bits")
	Value  uint32
}

func (a Atom) mask() uint32 {
	if a.Mask != 0 {
		return a.Mask
	}
	switch a.Size {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}

func (a Atom) String() string {
	return fmt.Sprintf("pkt[%d:%d]&%#x == %#x", a.Offset, a.Offset+a.Size, a.mask(), a.Value)
}

// Filter is a conjunction of atoms. Filters match fixed protocol headers;
// an empty filter matches everything.
type Filter struct {
	Atoms []Atom
}

// NewFilter builds a filter from atoms.
func NewFilter(atoms ...Atom) *Filter { return &Filter{Atoms: atoms} }

// Eq16 appends a 16-bit equality atom and returns the filter (builder style).
func (f *Filter) Eq16(off int, v uint16) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 2, Value: uint32(v)})
	return f
}

// Eq8 appends an 8-bit equality atom.
func (f *Filter) Eq8(off int, v uint8) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 1, Value: uint32(v)})
	return f
}

// Eq32 appends a 32-bit equality atom.
func (f *Filter) Eq32(off int, v uint32) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 4, Value: v})
	return f
}

// Masked16 appends a masked 16-bit atom.
func (f *Filter) Masked16(off int, mask, v uint16) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 2, Mask: uint32(mask), Value: uint32(v)})
	return f
}

// field extracts the big-endian field an atom tests; ok is false if the
// packet is too short.
func field(pkt []byte, off, size int) (uint32, bool) {
	if off < 0 || off+size > len(pkt) {
		return 0, false
	}
	var v uint32
	for i := 0; i < size; i++ {
		v = v<<8 | uint32(pkt[off+i])
	}
	return v, true
}

// Match reports whether the filter accepts the packet (reference
// semantics; the trie and interpreted paths must agree with this).
func (f *Filter) Match(pkt []byte) bool {
	for _, a := range f.Atoms {
		v, ok := field(pkt, a.Offset, a.Size)
		if !ok || v&a.mask() != a.Value {
			return false
		}
	}
	return true
}

// InterpCyclesPerAtom models the fetch/decode/dispatch cost of a classic
// interpreted filter engine (CSPF/MPF-class) per atom evaluated.
// Uncalibrated: the paper reports no interpreter timing, only that DPF is
// "an order of magnitude faster"; the dpf experiment shows the ratio this
// value gives.
const InterpCyclesPerAtom = 18

// CompiledCyclesPerAtom models one specialized compare in generated code:
// load, mask (often folded away), compare-and-branch. Uncalibrated: an
// instruction count, not fit to a measurement. Table I's Ethernet round
// trip includes it; the Ethernet fixed hardware cost is what is fit to
// that row's 309 us (DESIGN §1).
const CompiledCyclesPerAtom = 3

// Interpret evaluates the filter the way an interpreted engine would,
// returning the match result and the modeled cycle cost.
func Interpret(f *Filter, pkt []byte) (bool, sim.Time) {
	var cycles sim.Time
	for _, a := range f.Atoms {
		cycles += InterpCyclesPerAtom
		v, ok := field(pkt, a.Offset, a.Size)
		if !ok || v&a.mask() != a.Value {
			return false, cycles
		}
	}
	return true, cycles
}
