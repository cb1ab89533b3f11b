package sandbox

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"

	"ashs/internal/vcode"
)

// The compile cache makes Verify and Sandbox content-addressed: both are
// pure functions of (program contents, policy contents), and the bench
// sweeps download the same handful of handler programs thousands of times
// (once per freshly built testbed), so verification and SFI instrumentation
// are memoized under a sha256 key of program fingerprint + policy
// fingerprint. Cached builds are cloned on every hit — callers own their
// Program outright, exactly as if it had been instrumented from scratch —
// so the cache is invisible except in wall time. It is safe under
// concurrent use (the parallel bench runner compiles from many goroutines).

// cacheKey addresses one (program, policy) pair by content.
type cacheKey struct {
	prog [sha256.Size]byte
	pol  [sha256.Size]byte
}

// cacheCap bounds each memo table; when an insert would exceed it the
// table is flushed. Real workloads use a few dozen distinct handlers, so
// a flush means something is generating programs in a loop — starting
// over is cheaper than tracking recency.
const cacheCap = 256

var cache struct {
	sync.Mutex
	verify map[cacheKey]error
	build  map[cacheKey]*Program
	hits   uint64
	misses uint64
}

// policyFingerprint hashes every policy field that can influence
// verification or instrumentation. AllowedCalls entries mapped to false
// are skipped: Verify treats them identically to absent entries.
func policyFingerprint(pol *Policy) [sha256.Size]byte {
	h := sha256.New()
	var scratch [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	putBool := func(b bool) {
		if b {
			putU64(1)
		} else {
			putU64(0)
		}
	}
	putU64(uint64(pol.Hardware))
	putU64(uint64(pol.Budget))
	putBool(pol.Optimize)
	allowed := make([]string, 0, len(pol.AllowedCalls))
	for name, ok := range pol.AllowedCalls {
		if ok {
			allowed = append(allowed, name)
		}
	}
	sort.Strings(allowed)
	putU64(uint64(len(allowed)))
	for _, name := range allowed {
		putU64(uint64(len(name)))
		h.Write([]byte(name))
	}
	// The attached profile changes which transformations fire, so the same
	// program re-instrumented under a different profile must miss.
	if pol.Profile != nil {
		putU64(1)
		fp := pol.Profile.Fingerprint()
		h.Write(fp[:])
	} else {
		putU64(0)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func keyOf(p *vcode.Program, pol *Policy) cacheKey {
	return cacheKey{prog: p.Fingerprint(), pol: policyFingerprint(pol)}
}

// cloneFor deep-copies a cached build for a new caller. The caller's own
// policy pointer is installed so identity comparisons against the policy
// they passed in keep working.
func (sp *Program) cloneFor(pol *Policy) *Program {
	cp := *sp
	cp.Orig = sp.Orig.Clone()
	cp.Code = sp.Code.Clone()
	cp.JmpTable = append([]int(nil), sp.JmpTable...)
	cp.Policy = pol
	return &cp
}

// Verify performs the download-time static checks and returns nil if the
// program may be instrumented and installed. Results (rejections included)
// are memoized by content.
func Verify(p *vcode.Program, pol *Policy) error {
	k := keyOf(p, pol)
	cache.Lock()
	if err, ok := cache.verify[k]; ok {
		cache.hits++
		cache.Unlock()
		return err
	}
	cache.misses++
	cache.Unlock()
	err := verifyProgram(p, pol)
	cache.Lock()
	if cache.verify == nil || len(cache.verify) >= cacheCap {
		cache.verify = make(map[cacheKey]error)
	}
	cache.verify[k] = err
	cache.Unlock()
	return err
}

// Sandbox verifies and instruments a program under pol. The input program
// is not modified; the returned Program keeps its own private copy. Builds
// are memoized by content and cloned on every hit.
func Sandbox(p *vcode.Program, pol *Policy) (*Program, error) {
	k := keyOf(p, pol)
	cache.Lock()
	if sp, ok := cache.build[k]; ok {
		cache.hits++
		cache.Unlock()
		return sp.cloneFor(pol), nil
	}
	cache.misses++
	cache.Unlock()
	sp, err := compile(p, pol)
	if err != nil {
		return nil, err
	}
	cache.Lock()
	if cache.build == nil || len(cache.build) >= cacheCap {
		cache.build = make(map[cacheKey]*Program)
	}
	// Store a private clone: the built Program is handed to the caller,
	// who may attach it to a machine, and must never alias cache state.
	cache.build[k] = sp.cloneFor(pol)
	cache.Unlock()
	return sp, nil
}

// CacheStats reports cumulative compile-cache hits and misses (Verify and
// Sandbox combined).
func CacheStats() (hits, misses uint64) {
	cache.Lock()
	defer cache.Unlock()
	return cache.hits, cache.misses
}

// ResetCache empties the cache and zeroes the stats (test hook).
func ResetCache() {
	cache.Lock()
	defer cache.Unlock()
	cache.verify = nil
	cache.build = nil
	cache.hits, cache.misses = 0, 0
}
