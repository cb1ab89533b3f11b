package aegis

import "sync"

// Host physical memory is leased from a process-wide pool of arenas: byte
// arrays of a host's full memory size, every byte zero while pooled. A
// kernel exposes only the prefix it has allocated (see NewKernelMem), so
// the bytes a world may have dirtied are exactly that prefix, and
// Kernel.Close re-zeroes it and nothing else before the arena goes back.
// Which arena a lease receives is therefore unobservable, and worlds built
// on concurrent goroutines (ashbench -parallel N) share the pool freely.
//
// The free lists are explicit rather than a sync.Pool: a pool the collector
// may empty would make the bytes a run allocates follow collector timing.
var arenas = struct {
	sync.Mutex
	free  map[int][][]byte // by exact capacity; each entry has length 0
	stats ArenaCounts
}{free: map[int][][]byte{}}

// ArenaCounts is the arena pool's lifecycle accounting since process start.
// Leases - Returned is the number of hosts never closed (or still open);
// Grown counts arenas ever minted, so in steady state — every world closed
// before the next is built — it stops rising.
type ArenaCounts struct {
	Leases      uint64 // NewKernelMem calls
	Grown       uint64 // leases the free list could not serve
	Returned    uint64 // Kernel.Close calls that gave an arena back
	ZeroedBytes uint64 // bytes cleared on return: the allocated prefixes
}

// ArenaStats reports the pool's counters.
func ArenaStats() ArenaCounts {
	arenas.Lock()
	defer arenas.Unlock()
	return arenas.stats
}

// leaseArena returns an all-zero arena of exactly size bytes of capacity
// and length 0.
func leaseArena(size int) []byte {
	arenas.Lock()
	arenas.stats.Leases++
	if l := arenas.free[size]; len(l) > 0 {
		a := l[len(l)-1]
		l[len(l)-1] = nil
		arenas.free[size] = l[:len(l)-1]
		arenas.Unlock()
		return a
	}
	arenas.stats.Grown++
	arenas.Unlock()
	return make([]byte, 0, size) // zeroed by the runtime, outside the lock
}

// returnArena clears a's first dirty bytes — all its holder could have
// written — and puts it back on its size's free list.
func returnArena(a []byte, dirty int) {
	clear(a[:dirty])
	arenas.Lock()
	defer arenas.Unlock()
	arenas.free[cap(a)] = append(arenas.free[cap(a)], a[:0])
	arenas.stats.Returned++
	arenas.stats.ZeroedBytes += uint64(dirty)
}
