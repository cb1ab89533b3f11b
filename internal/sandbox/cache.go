package sandbox

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// The compile cache makes Verify and Sandbox content-addressed: both are
// pure functions of (program contents, policy contents), and the bench
// sweeps download the same handful of handler programs thousands of times
// (once per freshly built testbed), so verification and SFI instrumentation
// are memoized under a key of program fingerprint + policy fingerprint. Each
// half is one SHA-256 pass over its fields encoded at fixed widths in a
// stack buffer (vcode.Program.Fingerprint, policyFingerprint), so keying a
// lookup allocates nothing and costs one hash of the program. The key stays
// a cryptographic hash, not a cheaper checksum, because a collision would
// hand one program another's verified and instrumented build. A build is
// compiled once and then shared: every caller gets its own Program struct,
// carrying its own policy pointer, over the same Orig, Code and JmpTable.
// That is why a build is read-only (see Program). A hit costs one small
// struct whatever the program's size, and the cache is invisible except in
// wall time. It is safe under concurrent use (the parallel bench runner
// compiles from many goroutines, and shared builds are only ever read).

// cacheKey addresses one (program, policy) pair by content.
type cacheKey struct {
	prog [sha256.Size]byte
	pol  [sha256.Size]byte
}

// cacheCap bounds each memo table; when an insert would exceed it the
// table is cleared in place, keeping the buckets it grew. Real workloads
// use a few dozen distinct handlers, so a flush means something is
// generating programs in a loop — starting over is cheaper than tracking
// recency.
const cacheCap = 256

var cache struct {
	sync.Mutex
	verify map[cacheKey]error
	build  map[cacheKey]*Program
	hits   uint64
	misses uint64
	// onInsert, when set, sees every build as it enters (test hook).
	onInsert func(*Program)
}

// policyFingerprint hashes every policy field that can influence
// verification or instrumentation, at fixed widths, in one pass.
func policyFingerprint(pol *Policy) [sha256.Size]byte {
	var buf [8 + 8 + 1 + 1 + sha256.Size]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(pol.Hardware))
	binary.LittleEndian.PutUint64(buf[8:], uint64(pol.Budget))
	if pol.Optimize {
		buf[16] = 1
	}
	// The attached profile changes which transformations fire, so the same
	// program re-instrumented under a different profile must miss.
	if pol.Profile != nil {
		buf[17] = 1
		fp := pol.Profile.Fingerprint()
		copy(buf[18:], fp[:])
	}
	return sha256.Sum256(buf[:])
}

func keyOf(p *vcode.Program, pol *Policy) cacheKey {
	return cacheKey{prog: p.Fingerprint(), pol: policyFingerprint(pol)}
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

// Verify performs the download-time static checks and returns nil if the
// program may be instrumented and installed. Results (rejections included)
// are memoized by content.
func Verify(p *vcode.Program, pol *Policy) error {
	_, err := verifyKeyed(keyOf(p, pol), p)
	return err
}

// verifyKeyed is Verify under a key the caller has already computed. On a
// miss it also returns the CFG it verified; on a hit, none.
func verifyKeyed(k cacheKey, p *vcode.Program) (*analysis.CFG, error) {
	cache.Lock()
	if err, ok := cache.verify[k]; ok {
		cache.hits++
		cache.Unlock()
		return nil, err
	}
	cache.misses++
	cache.Unlock()
	c, err := verifyProgram(p)
	cache.Lock()
	if cache.verify == nil {
		cache.verify = make(map[cacheKey]error)
	} else if len(cache.verify) >= cacheCap {
		clear(cache.verify)
	}
	cache.verify[k] = err
	cache.Unlock()
	return c, err
}

// Sandbox verifies and instruments a program under pol. The input program
// is not modified, and the build does not alias it: Orig is a copy taken
// at the miss. Builds are memoized by content and shared by every hit.
func Sandbox(p *vcode.Program, pol *Policy) (*Program, error) {
	k := keyOf(p, pol)
	cache.Lock()
	if sp, ok := cache.build[k]; ok {
		cache.hits++
		cache.Unlock()
		return sp.withPolicy(pol), nil
	}
	cache.misses++
	cache.Unlock()
	c, err := verifyKeyed(k, p)
	if err != nil {
		return nil, err
	}
	sp, err := compile(p, pol, c)
	if err != nil {
		return nil, err
	}
	cache.Lock()
	if cache.build == nil {
		cache.build = make(map[cacheKey]*Program)
	} else if len(cache.build) >= cacheCap {
		clear(cache.build)
	}
	cache.build[k] = sp
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
