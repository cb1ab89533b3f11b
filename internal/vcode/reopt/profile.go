// Package reopt closes the paper's dynamic-code-generation loop. A Profile
// is a handler's measured per-instruction execution counts (exported by
// the obs plane); the SFI optimizer reads it through Profile.Hot to choose
// among transformations it has already proven sound (which loop-invariant
// divide checks to hoist, which exactly counted multi-block loops to
// coarsen), so an adversarial or stale profile can change cost but never
// semantics — the three-way differential harness (naive ≡ optimized ≡
// reoptimized) enforces exactly that. FuseChain splices back-to-back
// handlers into one download.
package reopt

import (
	"crypto/sha256"
	"encoding/binary"
)

// HotTrips is the hotness threshold: a loop header (or divide site) whose
// observed execution count reaches it is worth re-optimizing. The value is
// deliberately small — one coarse drain or hoisted check pays for itself
// after a handful of iterations — and deterministic, so identical profiles
// always produce identical code.
const HotTrips = 8

// Profile is the execution profile of one handler, keyed by *original*
// (pre-instrumentation) instruction index. It is produced by mapping the
// machine's per-pc counters back through the sandbox jump table, so the
// same profile drives re-optimization regardless of which instrumentation
// the counts were gathered under.
type Profile struct {
	// Handler names the profiled program (diagnostic only; not hashed).
	Handler string

	// Invocations is how many runs the counts accumulate over.
	Invocations uint64

	// Counts[pc] is how many times original instruction pc executed.
	// The vector may be shorter or longer than the program it is applied
	// to (profiles can be stale or adversarial); Count is nil- and
	// bounds-safe, and every consumer goes through it.
	Counts []uint64
}

// Count returns the observed execution count of original instruction pc,
// zero for out-of-range indices or a nil profile.
func (p *Profile) Count(pc int) uint64 {
	if p == nil || pc < 0 || pc >= len(p.Counts) {
		return 0
	}
	return p.Counts[pc]
}

// Hot reports whether original instruction pc crossed the hotness
// threshold.
func (p *Profile) Hot(pc int) bool { return p.Count(pc) >= HotTrips }

// Fingerprint hashes the profile's optimization-relevant content
// (invocation and per-pc counts). The compile cache mixes it into the
// policy fingerprint so the same program re-instrumented under different
// profiles occupies distinct cache entries; it stays a SHA-256, because the
// cache confirms a program by comparison but keys a profile by this hash
// alone. The counts are encoded eight bytes each, after the invocations and
// their number, into a stack chunk that goes to the digest one Write at a
// time.
func (p *Profile) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	if p != nil {
		var buf [512]byte
		binary.LittleEndian.PutUint64(buf[0:], p.Invocations)
		binary.LittleEndian.PutUint64(buf[8:], uint64(len(p.Counts)))
		n := 16
		for _, c := range p.Counts {
			if n+8 > len(buf) {
				h.Write(buf[:n])
				n = 0
			}
			binary.LittleEndian.PutUint64(buf[n:], c)
			n += 8
		}
		h.Write(buf[:n])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
