package aegis

import (
	"fmt"

	"ashs/internal/vcode"
)

// PageSize is the virtual-memory page size.
const PageSize = 4096

// Segment is a contiguous allocation inside an address space.
type Segment struct {
	Base uint32
	Len  uint32
	Name string
}

// Contains reports whether [addr, addr+n) lies inside the segment.
func (s Segment) Contains(addr uint32, n int) bool {
	return n >= 0 && addr >= s.Base && uint64(addr)+uint64(n) <= uint64(s.Base)+uint64(s.Len)
}

// AddrSpace is a process's addressing context. ASHs execute inside it
// (Section III-A: "the most important task required of the operating
// system is that it allows an ASH to execute in the addressing context of
// its associated application"). Segments are windows onto host physical
// memory; references outside any segment, or to a non-resident page, fault.
//
// In this simulation virtual address == physical address (segments are
// identity-mapped windows); what an AddrSpace adds is protection and
// residency, which is all the ASH safety argument needs.
type AddrSpace struct {
	k           *Kernel
	owner       string
	segs        []Segment
	nonResident map[uint32]bool // page number -> absent
}

// NewAddrSpace creates an empty address space on host k.
func (k *Kernel) NewAddrSpace(owner string) *AddrSpace {
	return &AddrSpace{k: k, owner: owner, nonResident: map[uint32]bool{}}
}

// Alloc adds a fresh segment of n bytes. All pages start resident and
// pinned (the paper: "we require that the application pin all pages that
// the ASH may reference"). Physical-memory exhaustion returns an error:
// a guest over-asking must not take the simulation down with it.
func (as *AddrSpace) Alloc(n int, name string) (Segment, error) {
	base, err := as.k.AllocPhys(n, as.owner+"/"+name)
	if err != nil {
		return Segment{}, err
	}
	seg := Segment{Base: base, Len: uint32(n), Name: name}
	as.segs = append(as.segs, seg)
	return seg, nil
}

// MustAlloc is Alloc for setup code whose sizes are fixed at build time;
// it panics on exhaustion, which there indicates a misconfigured testbed
// rather than guest misbehavior.
func (as *AddrSpace) MustAlloc(n int, name string) Segment {
	seg, err := as.Alloc(n, name)
	if err != nil {
		panic(err)
	}
	return seg
}

// Map adds an existing physical range as a segment (e.g. a device buffer
// region shared with the kernel).
func (as *AddrSpace) Map(seg Segment) { as.segs = append(as.segs, seg) }

// mapped reports whether one segment holds all of [addr, addr+n).
func (as *AddrSpace) mapped(addr uint32, n int) bool {
	for _, s := range as.segs {
		if s.Contains(addr, n) {
			return true
		}
	}
	return false
}

// Unpin marks the page containing addr non-resident (failure injection:
// an ASH touching it takes an involuntary abort, Section III-A).
func (as *AddrSpace) Unpin(addr uint32) { as.nonResident[addr/PageSize] = true }

// Pin makes the page containing addr resident again.
func (as *AddrSpace) Pin(addr uint32) { delete(as.nonResident, addr/PageSize) }

// Resident reports whether every page of [addr, addr+n) is resident.
func (as *AddrSpace) Resident(addr uint32, n int) bool {
	for pg := addr / PageSize; pg <= (addr+uint32(n)-1)/PageSize; pg++ {
		if as.nonResident[pg] {
			return false
		}
	}
	return true
}

// Bytes lends [addr, addr+n) itself, not a copy, once all of it has passed
// the protection and residency checks (n = 0 lends nothing and never
// faults). It is the one way into an address space: application-level Go
// code calls it by name, handlers reach it as vcode.Memory.
func (as *AddrSpace) Bytes(addr uint32, n int) ([]byte, error) {
	switch {
	case n == 0:
		return nil, nil
	case !as.mapped(addr, n):
		return nil, &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: addr,
			Msg: fmt.Sprintf("address outside %s's address space", as.owner)}
	case !as.Resident(addr, n):
		return nil, &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: addr, Msg: "non-resident page"}
	}
	return as.k.Bytes(addr, n), nil
}

// MustBytes is Bytes for segments the caller just allocated.
func (as *AddrSpace) MustBytes(addr uint32, n int) []byte {
	b, err := as.Bytes(addr, n)
	if err != nil {
		panic(err)
	}
	return b
}

// Load implements vcode.Memory.
func (as *AddrSpace) Load(addr uint32, n int) ([]byte, error) { return as.Bytes(addr, n) }

// Store implements vcode.Memory.
func (as *AddrSpace) Store(addr uint32, n int) ([]byte, error) { return as.Bytes(addr, n) }
