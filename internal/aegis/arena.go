package aegis

import (
	"bytes"
	"sync"

	"ashs/internal/mach"
)

// A host's memory and its cache model are leased together from one
// process-wide pool. The memory is an arena, a byte array of the host's full
// memory size, every byte zero while pooled; the cache is a mach.Cache that
// Reset makes what NewCache would return. A kernel exposes only the prefix
// of its arena it has allocated (see NewKernelMem), so the bytes a world may
// have dirtied lie in that prefix, and Kernel.Close re-zeroes the pages of
// it that hold a nonzero byte — and nothing else — before the lease goes
// back. Which lease a kernel receives is therefore unobservable, and worlds
// built on concurrent goroutines (ashbench -parallel N) share the pool
// freely.
//
// The free lists are explicit rather than a sync.Pool: a pool the collector
// may empty would make the bytes a run allocates follow collector timing.
var arenas = struct {
	sync.Mutex
	free  map[leaseKey][]lease
	stats ArenaCounts
}{free: map[leaseKey][]lease{}}

// lease is what the pool hands a kernel: its memory, length 0 and capacity
// the memory size, and its cache model.
type lease struct {
	mem   []byte
	cache *mach.Cache
}

// leaseKey is a lease's geometry: memory size and cache shape.
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

// leaseHost returns an all-zero arena of exactly size bytes of capacity and
// length 0, and a cache that is NewCache(p).
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
	return lease{make([]byte, 0, size), mach.NewCache(p)}
}

// returnHost clears the written pages of h's first dirty bytes — all its
// holder could have written — and puts h back on its geometry's free list.
func returnHost(h lease, dirty int, p *mach.Profile) {
	cleared := clearWritten(h.mem[:dirty])
	key := leaseKey{cap(h.mem), p.CacheBytes, p.LineBytes}
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
