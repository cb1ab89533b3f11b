package sandbox

import (
	"crypto/sha256"
	"sync"

	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// The compile cache makes Verify and Sandbox content-addressed: both are
// pure functions of (program contents, policy contents), and the bench
// sweeps download the same handful of handler programs thousands of times
// (once per freshly built testbed). The key is the program's 64-bit
// Fingerprint plus the policy's raw fields (a profile by its SHA-256
// fingerprint), and keying allocates nothing. Every entry keeps the program
// it was made from (a build's Orig, the same copy its verdict holds), and a
// lookup counts a hit only if that Equals the caller's program: programs
// whose hashes collide take successive keys, so a collision costs a miss,
// never another program's build. A build is compiled once and then shared:
// every caller gets its own Program struct, carrying its own policy
// pointer, over the same Orig, Code and JmpTable. That is why a build is
// read-only (see Program). A hit costs one small struct whatever the
// program's size, and the cache is invisible except in wall time. It is
// safe under concurrent use (the parallel bench runner compiles from many
// goroutines, and shared builds are only ever read).

// cacheKey addresses one (program, policy) pair by content.
type cacheKey struct {
	prog     uint64 // the program's fingerprint, stepped past colliding entries
	hardware Hardware
	budget   BudgetMode
	optimize bool
	// profile is the attached profile's fingerprint, zero with none: the
	// profile changes which transformations fire, so the same program
	// re-instrumented under a different profile must miss.
	profile [sha256.Size]byte
}

// cacheCap bounds each memo table; when an insert would exceed it the
// table is cleared in place, keeping the buckets it grew. Real workloads
// use a few dozen distinct handlers, so a flush means something is
// generating programs in a loop — starting over is cheaper than tracking
// recency.
const cacheCap = 256

var cache struct {
	sync.Mutex
	verify map[cacheKey]verdict
	build  map[cacheKey]*Program
	hits   uint64
	misses uint64
	// onInsert, when set, sees every build as it enters (test hook).
	onInsert func(*Program)
}

// programHash is the program half of a key (a test hook makes it collide).
var programHash = (*vcode.Program).Fingerprint

// verdict is a memoized Verify: the outcome, and the copy of the program it
// was reached on, which a build made after it shares as its Orig.
type verdict struct {
	orig *vcode.Program
	err  error
}

// entry is what a memo table holds: anything that keeps its program.
type entry interface{ original() *vcode.Program }

func (v verdict) original() *vcode.Program   { return v.orig }
func (sp *Program) original() *vcode.Program { return sp.Orig }

func keyOf(p *vcode.Program, pol *Policy) cacheKey {
	k := cacheKey{prog: programHash(p), hardware: pol.Hardware, budget: pol.Budget, optimize: pol.Optimize}
	if pol.Profile != nil {
		k.profile = pol.Profile.Fingerprint()
	}
	return k
}

// find looks p up in m from key k. It steps past entries made from other
// programs whose hash collided with p's, and returns p's entry if m has one,
// and the key p's entry has or would take.
func find[E entry](m map[cacheKey]E, k cacheKey, p *vcode.Program) (cacheKey, E, bool) {
	for {
		e, ok := m[k]
		if !ok || e.original().Equal(p) {
			return k, e, ok
		}
		k.prog++
	}
}

// store files e in *m under k, making the table at its first insert and
// clearing it when it is full.
func store[E entry](m *map[cacheKey]E, k cacheKey, e E) {
	if *m == nil {
		*m = make(map[cacheKey]E)
	} else if len(*m) >= cacheCap {
		clear(*m)
	}
	k, _, _ = find(*m, k, e.original())
	(*m)[k] = e
}

// withPolicy hands a cached build to a caller: a copy of the Program struct
// that shares the build's code and carries the caller's own policy pointer,
// so identity comparisons against the policy they passed in keep working
// and replacing a field of their Program leaves the cache alone.
func (sp *Program) withPolicy(pol *Policy) *Program {
	cp := *sp
	cp.Policy = pol
	return &cp
}

// Verify performs the download-time static checks and returns a nil error
// if the program may be instrumented and installed. It also returns the
// verdict's copy of p, read-only and shared by every caller as a build is,
// for a holder that must not see later writes to p (an unsafe download runs
// it). Results (rejections included) are memoized by content.
func Verify(p *vcode.Program, pol *Policy) (*vcode.Program, error) {
	orig, _, err := verifyKeyed(keyOf(p, pol), p)
	return orig, err
}

// verifyKeyed is Verify under a key the caller has already computed. It
// returns the verdict's copy of p and, on a miss, the CFG it verified; on a
// hit, no CFG.
func verifyKeyed(k cacheKey, p *vcode.Program) (*vcode.Program, *analysis.CFG, error) {
	cache.Lock()
	if _, v, ok := find(cache.verify, k, p); ok {
		cache.hits++
		cache.Unlock()
		return v.orig, nil, v.err
	}
	cache.misses++
	cache.Unlock()
	orig := p.Clone()
	c, err := verifyProgram(orig)
	cache.Lock()
	store(&cache.verify, k, verdict{orig, err})
	cache.Unlock()
	return orig, c, err
}

// Sandbox verifies and instruments a program under pol. The input program
// is not modified, and the build does not alias it: Orig is the copy its
// verdict took. Builds are memoized by content and shared by every hit.
func Sandbox(p *vcode.Program, pol *Policy) (*Program, error) {
	k := keyOf(p, pol)
	cache.Lock()
	if _, sp, ok := find(cache.build, k, p); ok {
		cache.hits++
		cache.Unlock()
		return sp.withPolicy(pol), nil
	}
	cache.misses++
	cache.Unlock()
	orig, c, err := verifyKeyed(k, p)
	if err != nil {
		return nil, err
	}
	sp, err := compile(orig, pol, c)
	if err != nil {
		return nil, err
	}
	cache.Lock()
	store(&cache.build, k, sp)
	if cache.onInsert != nil {
		cache.onInsert(sp)
	}
	cache.Unlock()
	return sp.withPolicy(pol), nil
}

// CacheStats reports cumulative compile-cache hits and misses (Verify and
// Sandbox combined).
func CacheStats() (hits, misses uint64) {
	cache.Lock()
	defer cache.Unlock()
	return cache.hits, cache.misses
}

// CacheEntries reports how many results the compile cache holds now:
// verification outcomes and builds together, as CacheStats counts them.
func CacheEntries() int {
	cache.Lock()
	defer cache.Unlock()
	return len(cache.verify) + len(cache.build)
}

// ResetCache empties the cache and zeroes the stats (test hook).
func ResetCache() {
	cache.Lock()
	defer cache.Unlock()
	cache.verify = nil
	cache.build = nil
	cache.hits, cache.misses = 0, 0
}
