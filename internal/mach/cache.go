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
	// Per-access costs, fixed at construction.
	hit, miss, store sim.Time
	// Statistics.
	Hits, Misses, Stores uint64
}

const tagInvalid = ^uint32(0)

// NewCache returns an empty cache for profile p. The line size and the
// line count must be powers of two (every access is then a shift, a mask
// and a compare); any other geometry panics.
func NewCache(p *Profile) *Cache {
	size, line := uint(p.CacheBytes), uint(p.LineBytes)
	if bits.OnesCount(size) != 1 || bits.OnesCount(line) != 1 || size < line {
		panic(fmt.Sprintf("mach: cache geometry not a power of two: %d bytes in %d-byte lines", p.CacheBytes, p.LineBytes))
	}
	lines := size / line
	c := &Cache{
		tags:  make([]uint32, lines),
		shift: uint(bits.TrailingZeros(line)),
		mask:  uint32(lines - 1),
		hit:   sim.Time(p.LoadHit),
		miss:  sim.Time(p.LoadHit + p.MissPenalty),
		store: sim.Time(p.StoreCycles),
	}
	c.Flush()
	return c
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
	last := (addr + uint32(n) - 1) >> c.shift
	for ln := addr >> c.shift; ln <= last; ln++ {
		if t := &c.tags[ln&c.mask]; *t == ln {
			*t = tagInvalid
		}
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

// wordsInLine reports how many words of a 4-byte-stride stream whose next
// word starts at addr start inside addr's line. A word belongs to the line
// its first byte is in, as in Load and Store.
func (c *Cache) wordsInLine(addr uint32) int {
	lineBytes := uint32(1) << c.shift
	return int((lineBytes - addr&(lineBytes-1) + 3) / 4)
}

// loadLine charges k consecutive word loads that all start in addr's line:
// the first decides hit or miss, and nothing in between can evict the line,
// so the other k-1 hit.
func (c *Cache) loadLine(addr uint32, k int) sim.Time {
	ln := addr >> c.shift
	t := &c.tags[ln&c.mask]
	if *t == ln {
		c.Hits += uint64(k)
		return sim.Time(k) * c.hit
	}
	*t = ln
	c.Misses++
	c.Hits += uint64(k - 1)
	return c.miss + sim.Time(k-1)*c.hit
}

// LoadRange charges a streaming read of [addr, addr+n): one Load per word
// at addr, addr+4, ..., computed a line at a time. Cycles, statistics and
// tags are exactly those of the per-word loop.
func (c *Cache) LoadRange(addr uint32, n int) sim.Time {
	var t sim.Time
	for words := (n + 3) / 4; words > 0; {
		k := min(c.wordsInLine(addr), words)
		t += c.loadLine(addr, k)
		addr += 4 * uint32(k)
		words -= k
	}
	return t
}

// CopyRange charges a streaming word copy of [src, src+n) to [dst, dst+n):
// Load(src+off) then Store(dst+off) for off = 0, 4, ..., exactly as that
// per-word loop would, but a segment at a time, splitting wherever either
// stream crosses a line. Within a segment the source line is fetched at
// most once and the destination line validated — unless the two are
// different lines with the same index, where every store evicts the line
// the next load needs and the words are charged one by one.
func (c *Cache) CopyRange(src, dst uint32, n int) sim.Time {
	var t sim.Time
	for words := (n + 3) / 4; words > 0; {
		k := min(c.wordsInLine(src), c.wordsInLine(dst), words)
		sl, dl := src>>c.shift, dst>>c.shift
		if sl != dl && sl&c.mask == dl&c.mask {
			for i := uint32(0); i < uint32(k); i++ {
				t += c.Load(src+4*i) + c.Store(dst+4*i)
			}
		} else {
			t += c.loadLine(src, k) + sim.Time(k)*c.store
			c.Stores += uint64(k)
			c.tags[dl&c.mask] = dl
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
	last := (addr + uint32(n) - 1) >> c.shift
	for ln := addr >> c.shift; ln <= last; ln++ {
		c.tags[ln&c.mask] = ln
	}
}

// Resident reports whether the line containing addr is cached.
func (c *Cache) Resident(addr uint32) bool {
	ln := addr >> c.shift
	return c.tags[ln&c.mask] == ln
}
