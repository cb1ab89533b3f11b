package sandbox

import (
	"math"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// TestMemoryConformance holds every vcode.Memory in the tree to the lending
// contract (vcode.Memory's doc): a request is checked whole, a granted one
// is a window onto the memory, a refused one is a FaultBadAddr naming the
// address and lends nothing, and n = 0 is granted anywhere. It lives in this
// package because this is the only one whose tests can see them all: the
// escape guard is unexported, and aegis imports vcode.
func TestMemoryConformance(t *testing.T) {
	const size = 3 * aegis.PageSize
	// What a case needs to know about a memory: the one range [lo, hi) it
	// holds, the bytes under it, and (address spaces only) how to take a
	// page away.
	type subject struct {
		mem    vcode.Memory
		lo, hi uint64
		raw    []byte
		unpin  func(addr uint32)
	}
	flat := func() subject {
		f := vcode.NewFlatMem(0x4000, size)
		return subject{mem: f, lo: 0x4000, hi: 0x4000 + size, raw: f.Data}
	}
	addrSpace := func() subject {
		// One mapped segment with a page of the host's memory, mapped to
		// nobody, on either side: what stops a request there is protection,
		// not the end of physical memory.
		k := aegis.NewKernelMem("conf", sim.NewEngine(), mach.DS5000_240(), size+2*aegis.PageSize)
		base, err := k.AllocPhys(size+2*aegis.PageSize, "all")
		if err != nil || base%aegis.PageSize != 0 {
			t.Fatalf("AllocPhys = %#x, %v", base, err)
		}
		lo := base + aegis.PageSize
		as := k.NewAddrSpace("conf")
		as.Map(aegis.Segment{Base: lo, Len: size, Name: "mem"})
		return subject{mem: as, lo: uint64(lo), hi: uint64(lo) + size, raw: k.Bytes(lo, size), unpin: as.Unpin}
	}
	over := func(inner func() subject, wrap func(vcode.Memory) vcode.Memory) func() subject {
		return func() subject {
			s := inner()
			s.mem = wrap(s.mem)
			return s
		}
	}
	journal := func(m vcode.Memory) vcode.Memory { return vcode.NewJournal(m) }
	subjects := []struct {
		name string
		make func() subject
	}{
		{"FlatMem", flat},
		{"AddrSpace", addrSpace},
		{"Journal over FlatMem", over(flat, journal)},
		{"Journal over AddrSpace", over(addrSpace, journal)},
		{"escape guard", func() subject {
			// The guard adds a latch and no rule of its own: what it lends
			// is what the memory under it lends.
			s := flat()
			s.mem = &escapeGuard{inner: s.mem, lo: uint32(s.lo) + 64, hi: uint32(s.hi) - 64}
			return s
		}},
		{"FlatMem up to the top of the address space", func() subject {
			f := vcode.NewFlatMem(math.MaxUint32-size+1, size)
			return subject{mem: f, lo: math.MaxUint32 - size + 1, hi: 1 << 32, raw: f.Data}
		}},
		{"FlatMem across the top of the address space", func() subject {
			// Data goes on past 2^32; addresses do not, and a range is
			// contiguous, so what lies beyond is never lent.
			f := vcode.NewFlatMem(math.MaxUint32-size+1, 2*size)
			return subject{mem: f, lo: math.MaxUint32 - size + 1, hi: 1 << 32, raw: f.Data[:size]}
		}},
	}

	// Each request is made as a Load and as a Store.
	type request func(addr uint32, n int) ([]byte, error)
	both := func(t *testing.T, s subject, f func(t *testing.T, what string, req request)) {
		t.Helper()
		f(t, "Load", s.mem.Load)
		f(t, "Store", s.mem.Store)
	}
	granted := func(t *testing.T, s subject, addr uint64, n int) {
		t.Helper()
		both(t, s, func(t *testing.T, what string, req request) {
			t.Helper()
			b, err := req(uint32(addr), n)
			if err != nil || len(b) != n {
				t.Fatalf("%s(%#x, %d) = %d bytes, %v; want the range", what, addr, n, len(b), err)
			}
			if n > 0 && &b[0] != &s.raw[addr-s.lo] {
				t.Fatalf("%s(%#x, %d) lent a copy, not the memory", what, addr, n)
			}
		})
	}
	refused := func(t *testing.T, s subject, addr uint64, n int) {
		t.Helper()
		both(t, s, func(t *testing.T, what string, req request) {
			t.Helper()
			b, err := req(uint32(addr), n)
			f, ok := err.(*vcode.Fault)
			if !ok || f.Kind != vcode.FaultBadAddr || f.Addr != uint32(addr) || b != nil {
				t.Fatalf("%s(%#x, %d) = %d bytes, %v; want nothing and a FaultBadAddr at the address", what, addr, n, len(b), err)
			}
		})
	}

	cases := []struct {
		name string
		run  func(t *testing.T, s subject)
	}{
		{"inside", func(t *testing.T, s subject) {
			granted(t, s, s.lo+8, 4)
			granted(t, s, s.lo+aegis.PageSize-2, 4) // across a page boundary
			granted(t, s, s.lo, size)
		}},
		{"first and last byte", func(t *testing.T, s subject) {
			granted(t, s, s.lo, 1)
			granted(t, s, s.hi-1, 1)
			granted(t, s, s.hi-4, 4)
		}},
		{"one past the end", func(t *testing.T, s subject) {
			if s.hi < 1<<32 {
				refused(t, s, s.hi, 1)
				refused(t, s, s.hi, 4)
			}
		}},
		{"straddling the end", func(t *testing.T, s subject) {
			refused(t, s, s.hi-2, 4)
			refused(t, s, s.hi-1, 2)
			refused(t, s, s.lo, size+1)
		}},
		{"below the base", func(t *testing.T, s subject) {
			refused(t, s, s.lo-1, 1)
			refused(t, s, s.lo-1, 2) // ends inside
			refused(t, s, s.lo-4, size+8)
			refused(t, s, 0, 4)
		}},
		{"nothing is lent anywhere", func(t *testing.T, s subject) {
			for _, addr := range []uint64{0, s.lo - 1, s.lo, s.hi - 1, s.hi, 0xdead0000, math.MaxUint32} {
				both(t, s, func(t *testing.T, what string, req request) {
					if b, err := req(uint32(addr), 0); err != nil || len(b) != 0 {
						t.Fatalf("%s(%#x, 0) = %d bytes, %v; want an empty slice and no fault", what, addr, len(b), err)
					}
				})
			}
		}},
		{"arithmetic that would wrap 2^32", func(t *testing.T, s subject) {
			refused(t, s, math.MaxUint32-3, 8)   // addr+n is 4 in 32 bits
			refused(t, s, s.lo+4, math.MaxInt32) // a length no memory has
			refused(t, s, s.lo+8, -1)
			if n := uint64(math.MaxUint32); uint64(int(n)) == n { // where int has 64 bits
				refused(t, s, s.lo+8, int(n)) // addr+n is addr-1 in 32 bits
			}
		}},
		{"an unpinned page in the middle", func(t *testing.T, s subject) {
			if s.unpin == nil {
				return
			}
			mid := s.lo + aegis.PageSize
			s.unpin(uint32(mid) + 100)
			refused(t, s, s.lo, size)
			refused(t, s, mid-2, 4) // ends in the absent page
			refused(t, s, mid+aegis.PageSize-1, 2)
			refused(t, s, mid+8, 1)
			granted(t, s, s.lo, aegis.PageSize)
			granted(t, s, mid+aegis.PageSize, aegis.PageSize)
		}},
		{"a window is the memory", func(t *testing.T, s subject) {
			w, err := s.mem.Store(uint32(s.lo)+16, 4)
			if err != nil {
				t.Fatal(err)
			}
			copy(w, []byte{0xde, 0xad, 0xbe, 0xef})
			if v, err := vcode.Load32(s.mem, uint32(s.lo)+16); err != nil || v != 0xdeadbeef || s.raw[16] != 0xde {
				t.Fatalf("a word written through a Store window reads back %#x, %v (memory holds %#x)", v, err, s.raw[16])
			}
			r, _ := s.mem.Load(uint32(s.lo)+16, 4)
			s.raw[17] = 0x55
			if r[1] != 0x55 || w[1] != 0x55 {
				t.Fatal("a window does not see a later write to the memory")
			}
			if len(w) != cap(w) {
				t.Fatalf("a 4-byte window has capacity %d: appending to it would write the memory beyond", cap(w))
			}
		}},
	}
	for _, sub := range subjects {
		for _, c := range cases {
			t.Run(sub.name+"/"+c.name, func(t *testing.T) { c.run(t, sub.make()) })
		}
	}
}

// TestEscapeGuardLatchesOnAnyByte: the guard's own rule. A request latches
// when any of its bytes lies outside [lo, hi) — not only its first — and a
// request for nothing never does, wherever it points (ash_copy and ash_dilp
// of zero bytes succeed at any address).
func TestEscapeGuardLatchesOnAnyByte(t *testing.T) {
	const lo, hi = 0x1000, 0x1100
	for _, c := range []struct {
		name    string
		addr    uint32
		n       int
		escapes bool
	}{
		{"inside", lo + 8, 4, false},
		{"the whole region", lo, hi - lo, false},
		{"last byte", hi - 1, 1, false},
		{"one past the end", hi, 1, true},
		{"first byte inside, last outside", hi - 2, 4, true},
		{"a stream that runs out of the region", lo, hi - lo + 4, true},
		{"last byte inside, first outside", lo - 1, 2, true},
		{"wraps 2^32", math.MaxUint32 - 1, 4, true},
		{"nothing, inside", lo, 0, false},
		{"nothing, at a wild address", 0xdead0000, 0, false},
		{"nothing, at the end", hi, 0, false},
	} {
		for _, store := range []bool{false, true} {
			g := &escapeGuard{inner: vcode.NewFlatMem(0, 0x10000), lo: lo, hi: hi}
			req := g.Load
			if store {
				req = g.Store
			}
			_, err := req(c.addr, c.n)
			if g.escaped != c.escapes {
				t.Errorf("%s (store %v): escaped = %v, want %v", c.name, store, g.escaped, c.escapes)
			}
			if c.n == 0 && err != nil {
				t.Errorf("%s (store %v): %v, want no fault for an empty range", c.name, store, err)
			}
		}
	}
}
