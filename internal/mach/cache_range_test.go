package mach

import (
	"math/rand"
	"slices"
	"testing"

	"ashs/internal/sim"
)

// loadWords, loadHalfwords and copyWords are the per-word and per-halfword
// loops LoadRange, LoadHalfwords and CopyRange replaced, kept as their
// oracles.
func loadWords(c *Cache, addr uint32, n int) sim.Time {
	var t sim.Time
	for off := 0; off < n; off += 4 {
		t += c.Load(addr + uint32(off))
	}
	return t
}

func loadHalfwords(c *Cache, addr uint32, n int) sim.Time {
	var t sim.Time
	for off := 0; off < n; off += 2 {
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

// flushBytes is FlushRange's oracle: each byte's line invalidated if it is
// the line cached at its index.
func flushBytes(c *Cache, addr uint32, n int) {
	for off := 0; off < n; off++ {
		a := addr + uint32(off)
		if c.Resident(a) {
			c.tags[a>>c.shift&c.mask] = tagInvalid
		}
	}
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
// straddling the index wrap and the top of the address space, and dst
// 4, 8 or 12 bytes out of phase with src within a line, aliased or not;
// ranges longer than the cache; src and dst index intervals that abut or
// fill the cache exactly, and one line off that; and the striped runs of
// an Ethernet frame — cycles, statistics and every tag equal the per-word
// Load/Store loop's, and FlushRange's tags the per-byte loop's.
func TestRangeClosedFormsMatchPerWordLoop(t *testing.T) {
	p := DS5000_240()
	r := rand.New(rand.NewSource(17))
	cache := uint32(p.CacheBytes)
	check := func(src, dst uint32, n int, how string) {
		t.Helper()
		seed := r.Int63()
		got, want := NewCache(p), NewCache(p)
		randomWarm(rand.New(rand.NewSource(seed)), got, p, src, dst)
		randomWarm(rand.New(rand.NewSource(seed)), want, p, src, dst)

		gc, wc := got.LoadRange(src, n), loadWords(want, src, n)
		sameCache(t, "LoadRange", got, want, gc, wc)
		gc, wc = got.LoadHalfwords(dst, n), loadHalfwords(want, dst, n)
		sameCache(t, "LoadHalfwords", got, want, gc, wc)
		gc, wc = got.CopyRange(src, dst, n), copyWords(want, src, dst, n)
		sameCache(t, "CopyRange ("+how+")", got, want, gc, wc)
		// A second pass over what the first left behind (the warm case).
		gc, wc = got.CopyRange(dst, src, n), copyWords(want, dst, src, n)
		sameCache(t, "CopyRange back ("+how+")", got, want, gc, wc)
		got.FlushRange(src+uint32(n/3), n/2)
		flushBytes(want, src+uint32(n/3), n/2)
		sameCache(t, "FlushRange ("+how+")", got, want, 0, 0)
	}
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
		check(src, dst, n, how)
	}
	// The phase skews a DILP copy meets: word-aligned streams whose offsets
	// within a 16-byte line differ, in distinct lines or in lines that share
	// an index (and in the same line, overlapping).
	for i := 0; i < 2000; i++ {
		src := uint32(r.Intn(1<<22)) &^ 3
		skew := 4 * uint32(1+i%3)
		dst, how := src+skew+uint32(r.Intn(1<<22))&^15, "skewed"
		switch i % 9 / 3 {
		case 0:
			dst, how = src+skew+cache*uint32(1+r.Intn(3)), "skewed, aliased"
		case 1:
			dst, how = src+skew, "skewed, overlapping"
		}
		check(src, dst, 1+r.Intn(4096), how)
	}
	// Longer than the cache: the source aliases itself, so no placement
	// of dst takes the disjoint fast path.
	for i := 0; i < 64; i++ {
		src := uint32(r.Intn(1 << 22))
		if i%4 == 0 {
			src = -uint32(r.Intn(4096)) // and across address 2^32
		}
		n := int(cache) + r.Intn(int(cache)+1) - i%2*r.Intn(64)
		check(src, uint32(r.Intn(1<<22)), n, "longer than the cache")
	}
	// The fast path's edges: dst's line-index interval starting right
	// after src's or ending right before it, the two exactly filling the
	// cache's index space, and each moved by one line into an overlap.
	line := uint32(p.LineBytes)
	lines := func(addr uint32, n int) uint32 { return (addr+4*uint32((n+3)/4-1))/line - addr/line + 1 }
	for i := 0; i < 1500; i++ {
		src := uint32(r.Intn(1 << 22))
		if i%8 == 0 {
			src = -uint32(r.Intn(1 << 16)) // across address 2^32
		}
		n := 1 + r.Intn(4096)
		phase := uint32(r.Intn(int(line))) &^ 3
		if i%3 == 0 {
			phase = uint32(r.Intn(int(line))) // not word-aligned
		}
		dst, how := (src/line+lines(src, n))*line+phase, "dst abuts src's end"
		switch i % 4 {
		case 1:
			dst, how = (src/line-lines(src/line*line+phase, n))*line+phase, "dst ends before src"
		case 2:
			dst, how = (src/line+lines(src, n))*line+phase+cache*uint32(1+r.Intn(3)), "dst abuts src's end, aliased"
		case 3:
			// Half the cache each, dst right after src: the two fill the
			// index space when dst's last line is the one before src's.
			n = int(cache)/2 - 4*r.Intn(2)
			dst, how = (src/line+lines(src, n))*line+phase, "together they fill the cache"
		}
		check(src, dst, n, how)
		check(src, dst-line, n, how+", one line back")
		check(src, dst+line, n, how+", one line on")
	}
	// The runs passCost issues over a striped (Ethernet) frame: the words
	// that start in one 16-byte data line, whose next data line is 32
	// bytes on, copied to a destination 4 bytes out of phase or read in
	// place, one range per run.
	for i := 0; i < 2000; i++ {
		src, dst := uint32(r.Intn(1<<22))&^15, uint32(r.Intn(1<<22))&^3
		if i%2 == 0 {
			dst = src + 0x38004
		}
		off, n := r.Intn(64), 1+r.Intn(1500)
		seed := r.Int63()
		got, want := NewCache(p), NewCache(p)
		randomWarm(rand.New(rand.NewSource(seed)), got, p, src, dst)
		randomWarm(rand.New(rand.NewSource(seed)), want, p, src, dst)
		var gc, wc sim.Time
		for o := 0; o < n; {
			d := off + o
			addr := src + 32*uint32(d/16) + uint32(d%16)
			run := min(n-o, (16-d%16+3)&^3)
			if i%3 == 0 {
				gc, wc = gc+got.LoadRange(addr, run), wc+loadWords(want, addr, run)
			} else {
				gc, wc = gc+got.CopyRange(addr, dst+uint32(o), run), wc+copyWords(want, addr, dst+uint32(o), run)
			}
			o += run
		}
		sameCache(t, "striped runs", got, want, gc, wc)
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
		gc, wc = got.LoadHalfwords(src, n), loadHalfwords(want, src, n)
		sameCache(t, "LoadHalfwords", got, want, gc, wc)
	}
}

func TestNewCacheRejectsNonPowerOfTwoGeometry(t *testing.T) {
	for _, g := range []struct{ cache, line int }{
		{48 * 1024, 16}, // 3072 lines
		{64 * 1024, 24}, // 24-byte lines
		{64 * 1024, 0},
		{0, 16},
		{64 * 1024, 2}, // a word spans two lines
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

// BenchmarkLoadRange and BenchmarkCopyRange time one 8 KiB range, the
// copy with dst 4 bytes out of phase as the traffic is: in distinct line
// indices (the one-step-per-line path) and aliasing src (the per-line
// loop).
func BenchmarkLoadRange(b *testing.B) {
	c := NewCache(DS5000_240())
	b.SetBytes(8 << 10)
	for i := 0; i < b.N; i++ {
		c.LoadRange(0x10000, 8<<10)
	}
}

func BenchmarkCopyRange(b *testing.B) {
	for _, bc := range []struct {
		name string
		dst  uint32
	}{{"disjoint", 0x38004}, {"aliased", 0x10004 + 64<<10}} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewCache(DS5000_240())
			b.SetBytes(8 << 10)
			for i := 0; i < b.N; i++ {
				c.CopyRange(0x10000, bc.dst, 8<<10)
			}
		})
	}
}
