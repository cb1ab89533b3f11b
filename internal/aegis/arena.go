package aegis

import (
	"bytes"
	"sync"

	"ashs/internal/mach"
)

// A host's memory and its cache model are leased together from one
// process-wide pool. The memory is an arena, a byte array every byte of
// which is zero while pooled; the cache is a mach.Cache that Reset makes
// what NewCache would return. A kernel exposes only the prefix of its arena
// it has allocated (see NewKernelMem), so the bytes a world may have dirtied
// lie in that prefix, and Kernel.Close re-zeroes the pages of it that hold
// a nonzero byte — and nothing else — before the lease goes back. Which
// lease a kernel receives is therefore unobservable, and worlds built on
// concurrent goroutines (ashbench -parallel N) share the pool freely.
//
// An arena starts at min(memory size, arenaStart) bytes and is promoted,
// once, to the full memory size when the kernel allocates past it (see
// promote); the pool keeps it at whichever size it has, on the free list of
// the host's memory size. Hosts use a small part of what they reserve: in
// the whole suite the paper's 8 MiB hosts never pass a brk of 656 KiB,
// overload's 24 MiB server stays at 288 KiB and megascale's echo and NFS
// servers at 880 KiB; only the scale server (up to 15.2 MiB of 24) and
// megascale's tcp-pp server (up to 120.4 MiB of 160) outgrow the start, and
// those mostly while their world is built.
//
// The free lists are explicit rather than a sync.Pool: a pool the collector
// may empty would make the bytes a run allocates follow collector timing.
var arenas = struct {
	sync.Mutex
	free  map[leaseKey][]lease
	stats ArenaCounts
}{free: map[leaseKey][]lease{}}

// lease is what the pool hands a kernel: its memory, length 0 and capacity
// arenaStart or, once promoted, the memory size, and its cache model.
type lease struct {
	mem   []byte
	cache *mach.Cache
}

// leaseKey is a lease's geometry: the host's memory size (not the arena's
// capacity, which may still be arenaStart) and cache shape.
type leaseKey struct{ mem, cacheBytes, lineBytes int }

// ArenaCounts is the pool's lifecycle accounting since process start.
// Leases - Returned is the number of hosts never closed (or still open);
// Grown counts leases ever minted, so in steady state — every world closed
// before the next is built — it stops rising.
type ArenaCounts struct {
	Leases      uint64 // NewKernelMem calls
	Grown       uint64 // leases the free list could not serve
	Returned    uint64 // Kernel.Close calls that gave a lease back
	ZeroedBytes uint64 // bytes cleared on return: the written pages
}

// ArenaStats reports the pool's counters.
func ArenaStats() ArenaCounts {
	arenas.Lock()
	defer arenas.Unlock()
	return arenas.stats
}

// arenaStart is the capacity a new arena starts at: a host's brk stays below
// it everywhere but in the two servers named above.
const arenaStart = 1 << 20

// leaseHost returns an all-zero arena of length 0 for a host of size bytes
// — capacity min(size, arenaStart), or size if the pool hands back one a
// holder promoted — and a cache that is NewCache(p).
func leaseHost(size int, p *mach.Profile) lease {
	key := leaseKey{size, p.CacheBytes, p.LineBytes}
	arenas.Lock()
	arenas.stats.Leases++
	if l := arenas.free[key]; len(l) > 0 {
		h := l[len(l)-1]
		l[len(l)-1] = lease{}
		arenas.free[key] = l[:len(l)-1]
		arenas.Unlock()
		h.cache.Reset(p)
		return h
	}
	arenas.stats.Grown++
	arenas.Unlock()
	// Zeroed by the runtime, outside the lock.
	return lease{make([]byte, 0, min(size, arenaStart)), mach.NewCache(p)}
}

// promote returns an all-zero arena of length 0 and capacity size whose
// first n bytes are a copy of old's, and overwrites those n bytes of old
// with poisonByte: a slice of the old arena still held reads garbage rather
// than stale bytes that happen to match.
func promote(old []byte, n, size int) []byte {
	mem := make([]byte, 0, size)
	prefix := old[:n]
	copy(mem[:n], prefix)
	for i := range prefix {
		prefix[i] = poisonByte
	}
	return mem
}

// poisonByte is what every byte of an arena a host was promoted out of
// reads as.
const poisonByte = 0xA5

// returnHost clears the written pages of h's first dirty bytes — all its
// holder could have written — and puts h back on the free list of hosts of
// size bytes.
func returnHost(h lease, size, dirty int, p *mach.Profile) {
	cleared := clearWritten(h.mem[:dirty])
	key := leaseKey{size, p.CacheBytes, p.LineBytes}
	arenas.Lock()
	defer arenas.Unlock()
	arenas.free[key] = append(arenas.free[key], h)
	arenas.stats.Returned++
	arenas.stats.ZeroedBytes += uint64(cleared)
}

// zeroPage is what a page nobody wrote reads as.
var zeroPage [PageSize]byte

// clearWritten zeroes every page of b that holds a nonzero byte and returns
// the bytes it cleared. A page that already reads zero is only read, never
// written: on Linux, a never-touched page then maps the shared zero page
// and stays out of the process's resident set. Comparing bytes rather than
// tracking stores is what keeps this sound: FlatMem machines and crl write
// host memory without going through Kernel.Bytes.
func clearWritten(b []byte) (cleared int) {
	for len(b) > 0 {
		pg := b[:min(len(b), PageSize)]
		if !bytes.Equal(pg, zeroPage[:len(pg)]) {
			clear(pg)
			cleared += len(pg)
		}
		b = b[len(pg):]
	}
	return cleared
}
