package mach

import (
	"fmt"
	"math/bits"

	"ashs/internal/sim"
)

// Cache simulates the DECstation's direct-mapped write-through data cache.
// It tracks only tags (the simulated memory's contents live elsewhere); its
// job is to charge the right number of cycles for each access pattern.
//
// Addresses are virtual addresses in the simulated machine's address space.
// Write-through with write-validate: a store costs StoreCycles (the write
// buffer), fetches nothing, and marks its line valid — see Store.
type Cache struct {
	tags  []uint32 // tag per line index; tagInvalid when empty
	shift uint     // log2(LineBytes): addr >> shift is the line number
	mask  uint32   // lines - 1: line number & mask is the line index
	top   uint32   // the last line number: line numbers wrap after it
	// Per-access costs, fixed at construction.
	hit, miss, store sim.Time
	// Statistics.
	Hits, Misses, Stores uint64
}

const tagInvalid = ^uint32(0)

// NewCache returns an empty cache for profile p. The line size and the
// line count must be powers of two (every access is then a shift, a mask
// and a compare), and a line must hold a word; any other geometry panics.
func NewCache(p *Profile) *Cache {
	c := &Cache{}
	c.Reset(p)
	return c
}

// Reset makes c exactly what NewCache(p) returns: every tag invalid, the
// statistics zero and the costs p's. It keeps c's tag array when p's
// geometry fits it, so a recycled cache allocates nothing.
func (c *Cache) Reset(p *Profile) {
	size, line := uint(p.CacheBytes), uint(p.LineBytes)
	if bits.OnesCount(size) != 1 || bits.OnesCount(line) != 1 || size < line || line < 4 {
		panic(fmt.Sprintf("mach: cache geometry not a power of two of words: %d bytes in %d-byte lines", p.CacheBytes, p.LineBytes))
	}
	lines := size / line
	tags := c.tags
	if uint(len(tags)) != lines {
		tags = make([]uint32, lines)
	}
	*c = Cache{
		tags:  tags,
		shift: uint(bits.TrailingZeros(line)),
		mask:  uint32(lines - 1),
		top:   ^uint32(0) >> bits.TrailingZeros(line),
		hit:   sim.Time(p.LoadHit),
		miss:  sim.Time(p.LoadHit + p.MissPenalty),
		store: sim.Time(p.StoreCycles),
	}
	c.Flush()
}

// Flush invalidates the entire cache (the paper flushes between benchmark
// iterations to model a message that arrives uncached).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
}

// FlushRange invalidates all lines covering [addr, addr+n) — e.g. the
// software cache flush the AN2 driver performs after a DMA.
func (c *Cache) FlushRange(addr uint32, n int) {
	if n <= 0 {
		return
	}
	ln, lines := c.lines(addr, addr+uint32(n)-1)
	for ; lines > 0; lines-- {
		if t := &c.tags[ln&c.mask]; *t == ln {
			*t = tagInvalid
		}
		ln = (ln + 1) & c.top
	}
}

// Load charges one 32-bit load at addr and returns its cost in cycles.
func (c *Cache) Load(addr uint32) sim.Time {
	ln := addr >> c.shift
	t := &c.tags[ln&c.mask]
	if *t == ln {
		c.Hits++
		return c.hit
	}
	c.Misses++
	*t = ln
	return c.miss
}

// Store charges one 32-bit store at addr. The model is write-through with
// write-validate: the store goes to the write buffer at a fixed cost and
// the line is marked valid without a fetch, so freshly written buffers
// read back as cached — the behaviour Table III's "data in the cache for
// the second copy" case depends on.
func (c *Cache) Store(addr uint32) sim.Time {
	c.Stores++
	ln := addr >> c.shift
	c.tags[ln&c.mask] = ln
	return c.store
}

// lines returns the line holding byte from and how many lines hold the
// bytes from through to. Line numbers wrap at c.top, so a range across
// address 2^32 is counted as a loop over its addresses walks it.
func (c *Cache) lines(from, to uint32) (first, count uint32) {
	first = from >> c.shift
	return first, (to>>c.shift-first)&c.top + 1
}

// stream returns the lines n accesses stride bytes apart from addr touch,
// as lines does. An access belongs to the line its first byte is in, as in
// Load and Store, and a line holds at least a word, so a stride of 2 or 4
// touches every line from its first access's to its last's.
func (c *Cache) stream(addr uint32, n int, stride uint32) (first, count uint32) {
	return c.lines(addr, addr+stride*uint32(n-1))
}

// loadLines charges the first load of each of lines lines from ln, in
// order: a tag compare, and on a miss the line is fetched. Nothing between
// two loads of one line evicts it, so every other load of a word hits. It
// returns the misses.
func (c *Cache) loadLines(ln, lines uint32) uint64 {
	var misses uint64
	for ; lines > 0; lines-- {
		if t := &c.tags[ln&c.mask]; *t != ln {
			*t = ln
			misses++
		}
		ln = (ln + 1) & c.top
	}
	c.Misses += misses
	return misses
}

// charge accounts words word loads of which misses missed, plus stores
// word stores, and returns their cycles.
func (c *Cache) charge(words, misses, stores uint64) sim.Time {
	c.Hits += words - misses
	c.Stores += stores
	return sim.Time(misses)*c.miss + sim.Time(words-misses)*c.hit + sim.Time(stores)*c.store
}

// loadStream charges n loads stride bytes apart from addr, computed a line
// at a time: each line is compared once, and every other load of it hits.
func (c *Cache) loadStream(addr uint32, n int, stride uint32) sim.Time {
	if n <= 0 {
		return 0
	}
	misses := c.loadLines(c.stream(addr, n, stride))
	return c.charge(uint64(n), misses, 0)
}

// LoadRange charges a streaming read of [addr, addr+n): one Load per word
// at addr, addr+4, ..., computed a line at a time. Cycles, statistics and
// tags are exactly those of the per-word loop.
func (c *Cache) LoadRange(addr uint32, n int) sim.Time { return c.loadStream(addr, (n+3)/4, 4) }

// LoadHalfwords charges a streaming read of [addr, addr+n) a halfword at a
// time, as a 16-bit checksum loop issues it: one Load per halfword at
// addr, addr+2, ..., so every word is loaded twice.
func (c *Cache) LoadHalfwords(addr uint32, n int) sim.Time { return c.loadStream(addr, (n+1)/2, 2) }

// CopyRange charges a streaming word copy of [src, src+n) to [dst, dst+n):
// Load(src+off) then Store(dst+off) for off = 0, 4, ..., exactly as that
// per-word loop would.
//
// When the source's and the destination's line-index intervals are
// disjoint (which needs them to fit in the cache together), no store can
// evict a source line and no line is touched twice: the source lines are
// loaded as LoadRange loads them and the destination's tags are written
// after them, in order. That case carries 82 % of the words copied over a
// serial ashbench run (82.3 % of tcp-bulk's, 81.5 % of chaos's), and
// without it tcp-bulk's cpu_s rises 8.5 % (ten alternated pairs on a
// 2-vCPU host). Otherwise the copy goes a source line at a time.
// The k words that start in one source line have their destinations in at
// most two lines, d1 and then d2. When neither is a different line with
// the source line's index, no store of the k can evict the source line: the
// first load decides hit or miss, the other k-1 hit, and the stores leave
// d1's tag written, then d2's. Otherwise every store may evict the line the
// next load needs, and that source line's words are charged one by one.
func (c *Cache) CopyRange(src, dst uint32, n int) sim.Time {
	words := (n + 3) / 4
	if words <= 0 {
		return 0
	}
	sl, sn := c.stream(src, words, 4)
	dl, dn := c.stream(dst, words, 4)
	if r := (dl - sl) & c.mask; r >= sn && r+dn <= c.mask+1 {
		misses := c.loadLines(sl, sn)
		for ; dn > 0; dn-- {
			c.tags[dl&c.mask] = dl
			dl = (dl + 1) & c.top
		}
		return c.charge(uint64(words), misses, uint64(words))
	}
	var t sim.Time
	lineBytes := uint32(1) << c.shift
	for words > 0 {
		k := min(int((lineBytes-src&(lineBytes-1)+3)/4), words)
		sl, d1, d2 := src>>c.shift, dst>>c.shift, (dst+4*uint32(k-1))>>c.shift
		if sl != d1 && sl&c.mask == d1&c.mask || sl != d2 && sl&c.mask == d2&c.mask {
			for i := uint32(0); i < uint32(k); i++ {
				t += c.Load(src+4*i) + c.Store(dst+4*i)
			}
		} else {
			t += c.charge(uint64(k), c.loadLines(sl, 1), uint64(k))
			c.tags[d1&c.mask] = d1
			c.tags[d2&c.mask] = d2
		}
		src += 4 * uint32(k)
		dst += 4 * uint32(k)
		words -= k
	}
	return t
}

// WorstWord returns the most one Load and one Store can cost. LoadRange and
// CopyRange charge no more than that per word, so a caller with a cycle
// budget can bound a range before it charges one.
func (c *Cache) WorstWord() (load, store sim.Time) {
	return max(c.hit, c.miss), c.store
}

// Warm marks [addr, addr+n) resident without charging cycles (for setting
// up "cached" experimental conditions).
func (c *Cache) Warm(addr uint32, n int) {
	if n <= 0 {
		return
	}
	ln, lines := c.lines(addr, addr+uint32(n)-1)
	for ; lines > 0; lines-- {
		c.tags[ln&c.mask] = ln
		ln = (ln + 1) & c.top
	}
}

// Resident reports whether the line containing addr is cached.
func (c *Cache) Resident(addr uint32) bool {
	ln := addr >> c.shift
	return c.tags[ln&c.mask] == ln
}
