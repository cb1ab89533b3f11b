package mach

import (
	"math/rand"
	"slices"
	"testing"

	"ashs/internal/sim"
)

// loadWords and copyWords are the per-word loops LoadRange and CopyRange
// replaced, kept as their oracles.
func loadWords(c *Cache, addr uint32, n int) sim.Time {
	var t sim.Time
	for off := 0; off < n; off += 4 {
		t += c.Load(addr + uint32(off))
	}
	return t
}

func copyWords(c *Cache, src, dst uint32, n int) sim.Time {
	var t sim.Time
	for off := 0; off < n; off += 4 {
		t += c.Load(src+uint32(off)) + c.Store(dst+uint32(off))
	}
	return t
}

// randomWarm leaves the cache in an arbitrary state around the given
// addresses: some lines resident, some holding a conflicting line, some
// empty.
func randomWarm(r *rand.Rand, c *Cache, p *Profile, addrs ...uint32) {
	for _, a := range addrs {
		for off := -64; off < 4096+64; off += p.LineBytes {
			at := a + uint32(off)
			switch r.Intn(4) {
			case 0:
				c.Warm(at, 1)
			case 1:
				c.Warm(at+uint32(p.CacheBytes), 1) // same index, other line
			}
		}
	}
}

func sameCache(t *testing.T, what string, got, want *Cache, gotCyc, wantCyc sim.Time) {
	t.Helper()
	if gotCyc != wantCyc || got.Hits != want.Hits || got.Misses != want.Misses || got.Stores != want.Stores {
		t.Fatalf("%s: cycles %d hits %d misses %d stores %d, per-word loop gives %d/%d/%d/%d",
			what, gotCyc, got.Hits, got.Misses, got.Stores, wantCyc, want.Hits, want.Misses, want.Stores)
	}
	if !slices.Equal(got.tags, want.tags) {
		t.Fatalf("%s: final tags differ from the per-word loop's", what)
	}
}

// TestRangeClosedFormsMatchPerWordLoop is the equivalence proof of the
// line-granular LoadRange and CopyRange: over random bases (any
// alignment), lengths (not only multiples of four), warm states and
// src/dst placements — independent, aliasing one index, overlapping,
// straddling the index wrap and the top of the address space — cycles,
// statistics and every tag equal the per-word Load/Store loop's.
func TestRangeClosedFormsMatchPerWordLoop(t *testing.T) {
	p := DS5000_240()
	r := rand.New(rand.NewSource(17))
	cache := uint32(p.CacheBytes)
	lengths := func() int {
		switch r.Intn(8) {
		case 0:
			return r.Intn(2) // 0 or 1
		case 1:
			return 4096 - r.Intn(8)
		default:
			return 1 + r.Intn(4096)
		}
	}
	for i := 0; i < 20000; i++ {
		src := uint32(r.Intn(1 << 22))
		switch r.Intn(6) {
		case 0:
			src &^= 3
		case 1:
			src = cache*uint32(1+r.Intn(8)) - uint32(r.Intn(256)) // range crosses the index wrap
		case 2:
			src = -uint32(r.Intn(2048)) // range crosses address 2^32
		}
		n := lengths()
		var dst uint32
		var how string
		switch r.Intn(6) {
		case 0:
			dst, how = src+cache*uint32(1+r.Intn(3)), "aliased exactly"
		case 1:
			dst, how = src+cache+uint32(r.Intn(64))-32, "aliased, skewed"
		case 2:
			dst, how = src+uint32(r.Intn(128))-64, "overlapping"
		case 3:
			dst, how = src, "identical"
		case 4:
			dst, how = cache*uint32(1+r.Intn(8))-uint32(r.Intn(256)), "dst crosses the index wrap"
		default:
			dst, how = uint32(r.Intn(1<<22)), "independent"
		}

		seed := r.Int63()
		got, want := NewCache(p), NewCache(p)
		randomWarm(rand.New(rand.NewSource(seed)), got, p, src, dst)
		randomWarm(rand.New(rand.NewSource(seed)), want, p, src, dst)

		gc, wc := got.LoadRange(src, n), loadWords(want, src, n)
		sameCache(t, "LoadRange", got, want, gc, wc)
		gc, wc = got.CopyRange(src, dst, n), copyWords(want, src, dst, n)
		sameCache(t, "CopyRange ("+how+")", got, want, gc, wc)
		// A second pass over what the first left behind (the warm case).
		gc, wc = got.CopyRange(dst, src, n), copyWords(want, dst, src, n)
		sameCache(t, "CopyRange back ("+how+")", got, want, gc, wc)
	}
}

// TestRangeClosedFormsOddGeometry repeats the equivalence on a tiny cache
// with 8-byte lines, where a misaligned stream puts one or two words in a
// line and almost every placement aliases.
func TestRangeClosedFormsOddGeometry(t *testing.T) {
	p := DS5000_240().Clone()
	p.CacheBytes, p.LineBytes = 256, 8
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		src, dst, n := uint32(r.Intn(2048)), uint32(r.Intn(2048)), r.Intn(600)
		got, want := NewCache(p), NewCache(p)
		got.Warm(uint32(r.Intn(2048)), 128)
		copy(want.tags, got.tags)
		gc, wc := got.CopyRange(src, dst, n), copyWords(want, src, dst, n)
		sameCache(t, "CopyRange", got, want, gc, wc)
		gc, wc = got.LoadRange(dst, n), loadWords(want, dst, n)
		sameCache(t, "LoadRange", got, want, gc, wc)
	}
}

func TestNewCacheRejectsNonPowerOfTwoGeometry(t *testing.T) {
	for _, g := range []struct{ cache, line int }{
		{48 * 1024, 16}, // 3072 lines
		{64 * 1024, 24}, // 24-byte lines
		{64 * 1024, 0},
		{0, 16},
	} {
		p := DS5000_240().Clone()
		p.CacheBytes, p.LineBytes = g.cache, g.line
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache accepted %d bytes in %d-byte lines", g.cache, g.line)
				}
			}()
			NewCache(p)
		}()
	}
}
