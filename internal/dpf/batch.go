package dpf

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// InsertBatch installs n filters as one step and returns the id of the
// first: filter i gets id first+i, the ids n Inserts in batch order would
// issue. fill(i, f) writes filter i into f, one Filter the engine reuses
// for the whole batch and hands to the first call empty: fill may append
// to f.Atoms[:0], patch what it wrote for filter i-1, or point f.Atoms at
// a slice of its own, which the engine only reads and keeps no reference
// to.
//
// The trie is the one n Inserts would build — the same branches in the
// same order, tables of the same size — but it is built a node at a time,
// not a filter at a time. Filters that share a prefix walk it once. A
// branch that gains several children sizes its table once, to its final
// size, and fills it in home-slot order, so a table of 2^20 slots is
// written front to back instead of taking a cache miss per filter. Only
// the order of entries within a probe cluster can differ, which moves
// Census.ProbeMax but not ProbeMean.
//
// The batch is installed whole or not at all. If any filter has an atom
// Insert would refuse, or duplicates another filter of the batch or one
// already installed, InsertBatch returns that error, and Len, the next id
// issued, Demux and DemuxLinear are as they were before the call.
func (e *Engine) InsertBatch(n int, fill func(i int, f *Filter)) (FilterID, error) {
	first := e.filt.n
	switch {
	case n < 0:
		return 0, fmt.Errorf("dpf: batch of %d filters", n)
	case int64(first)+int64(n) > math.MaxInt32+1:
		return 0, errors.New("dpf: filter ids exhausted")
	case n == 0:
		return FilterID(first), nil
	}
	b := batch{e: e, first: first, atoms0: e.atoms.n}
	err := b.stage(n, fill)
	if err == nil {
		err = b.build(n)
	}
	if err != nil {
		b.undo()
		return 0, err
	}
	e.live += n
	e.reordered = false // trie shape changed: depth bounds stale
	return FilterID(first), nil
}

// batch is one InsertBatch in progress. Its scratch is ent and tmp, a
// word each per filter.
type batch struct {
	e      *Engine
	first  uint32 // id of the batch's filter 0
	atoms0 uint32 // atom slab length before the batch
	staged uint32 // filters whose atoms and id are stored

	// prefix is filter 0's canonical atoms, the first common of which
	// every filter of the batch shares.
	prefix [stackAtoms]atom
	common int
	// sorted is set when every filter gave its atoms in trie order, so
	// level can read a stored atom without sorting its run.
	sorted bool

	// ent holds one entry per filter being placed: the batch index in the
	// low 31 bits, lastAtom when the filter ends at the node being
	// placed, and a sort key in the high 32 bits. place partitions it in
	// place, level by level; tmp is the scatter space of a partition.
	ent, tmp []uint64
}

// lastAtom flags an entry whose filter has no atoms below the node its
// range is being placed at.
const lastAtom = 1 << 31

// stage stores every filter's atoms, in the order fill gave them, and
// issues its id: what n Inserts store, in the same order, so they take
// the same freed atom runs. It also finds the batch's common prefix.
func (b *batch) stage(n int, fill func(i int, f *Filter)) error {
	e := b.e
	defer func() { e.spare = Filter{} }()
	b.sorted = true
	for i := 0; i < n; i++ {
		fill(i, &e.spare)
		var gbuf, cbuf [stackAtoms]atom
		given := gbuf[:0]
		for _, a := range e.spare.Atoms {
			p, err := pack(a)
			if err != nil {
				return err
			}
			given = append(given, p)
		}
		canon := given
		if !inOrder(given) {
			canon = append(cbuf[:0], given...)
			sortCanonical(canon)
			b.sorted = false
		}
		if i == 0 {
			b.common = copy(b.prefix[:], canon)
		}
		common := 0
		for common < b.common && common < len(canon) && canon[common] == b.prefix[common] {
			common++
		}
		b.common = common
		// DemuxLinear's early-exit cost depends on the order the caller gave.
		e.filt.push(filtRec{first: e.storeRun(given), n: int32(len(given))})
		b.staged++
	}
	return nil
}

// inOrder reports whether atoms are in trie order already.
func inOrder(atoms []atom) bool {
	for j := 1; j < len(atoms); j++ {
		if atoms[j].key().less(atoms[j-1].key()) {
			return false
		}
	}
	return true
}

// build merges the staged filters into the trie: the shared prefix once,
// then the rest a node at a time.
func (b *batch) build(n int) error {
	if n == 1 {
		return b.chain(0, 0, 0)
	}
	e := b.e
	ni := uint32(0)
	for _, a := range b.prefix[:b.common] {
		ni = e.step(ni, a)
	}
	b.ent = make([]uint64, n)
	for i := range b.ent {
		b.ent[i] = uint64(i)
		if int(e.filt.at(b.first+uint32(i)).n) == b.common {
			b.ent[i] |= lastAtom
		}
	}
	return b.place(ni, b.common, 0, n)
}

// step is one level of an insert: the child of node ni through atom a's
// branch, each made if missing. A new branch is appended: Demux charges
// branches in install order.
func (e *Engine) step(ni uint32, a atom) uint32 {
	bi := e.branchFor(ni, a.key())
	kid := e.branches.at(bi).kid(a.val)
	if kid == 0 {
		kid = e.newNode()
		e.branches.at(bi).addKid(a.val, kid)
	}
	return kid
}

// branchFor returns node ni's branch testing k, appended to its list if
// there is none.
func (e *Engine) branchFor(ni uint32, k key) uint32 {
	bi, prev := e.findBranch(ni, k)
	if bi == nilIdx {
		bi = e.newBranch(k)
		if prev == nilIdx {
			e.nodes.at(ni).first = bi
		} else {
			e.branches.at(prev).next = bi
		}
	}
	return bi
}

// canonical appends filter i's stored atoms to dst in trie order.
func (b *batch) canonical(i uint32, dst []atom) []atom {
	rec := *b.e.filt.at(b.first + i)
	for j := uint32(0); j < uint32(rec.n); j++ {
		dst = append(dst, *b.e.atoms.at(rec.first + j))
	}
	sortCanonical(dst)
	return dst
}

// level returns filter i's atom at trie level l, which must exist, and
// whether it is the filter's last.
func (b *batch) level(i uint32, l int) (atom, bool) {
	rec := *b.e.filt.at(b.first + i)
	if b.sorted {
		return *b.e.atoms.at(rec.first + uint32(l)), l == int(rec.n)-1
	}
	var buf [stackAtoms]atom
	return b.canonical(i, buf[:0])[l], l == int(rec.n)-1
}

// chain places filter i below node ni, whose level is l, one atom at a
// time: Insert's walk.
func (b *batch) chain(ni uint32, l int, i uint32) error {
	var buf [stackAtoms]atom
	for _, a := range b.canonical(i, buf[:0])[l:] {
		ni = b.e.step(ni, a)
	}
	return b.terminate(ni, i)
}

// terminate makes node ni filter i's terminal, unless a filter ends there
// already: then the whole path existed, nothing was added for i, and i is
// a duplicate.
func (b *batch) terminate(ni, i uint32) error {
	n := b.e.nodes.at(ni)
	if n.terminal != noTerminal {
		return fmt.Errorf("%w: %v", ErrDuplicateFilter, b.canonical(i, nil))
	}
	n.terminal = int32(b.first + i)
	return nil
}

// place merges the filters of ent[lo:hi] below node ni, whose level is l:
// every one of them has its first l atoms on the path to ni. The range
// ends at ni or goes on through ni's branches, grouped by the key of atom
// l in order of first appearance (the order n Inserts would append the
// branches in) and, within a branch, by value. Each child is made just
// before its own filters are placed, so if a duplicate stops the batch,
// every node it made is on the path of a filter it terminated.
func (b *batch) place(ni uint32, l, lo, hi int) error {
	if hi-lo == 1 {
		i := uint32(b.ent[lo]) &^ lastAtom
		if b.ent[lo]&lastAtom != 0 {
			return b.terminate(ni, i)
		}
		return b.chain(ni, l, i)
	}
	// Filters that end here leave the range; the others get atom l's
	// hash as their key, and the lastAtom flag of the level below.
	w, mixed := lo, false
	var k0 key
	for j := lo; j < hi; j++ {
		i := uint32(b.ent[j]) &^ lastAtom
		if b.ent[j]&lastAtom != 0 {
			if err := b.terminate(ni, i); err != nil {
				return err
			}
			continue
		}
		a, last := b.level(i, l)
		if w == lo {
			k0 = a.key()
		}
		mixed = mixed || a.key() != k0
		b.ent[w] = uint64(a.val*fib)<<32 | uint64(i)
		if last {
			b.ent[w] |= lastAtom
		}
		w++
	}
	if w == lo {
		return nil
	}
	if !mixed {
		return b.fan(ni, l, k0, lo, w)
	}
	// Several keys: gather each key's filters, keys in order of first
	// appearance and filters in batch order, then fan out each key's run
	// with atom l's hash as the key again.
	var kbuf [stackAtoms]key
	keys := kbuf[:0]
	for j := lo; j < w; j++ {
		a, _ := b.level(uint32(b.ent[j])&^lastAtom, l)
		ki := 0
		for ki < len(keys) && keys[ki] != a.key() {
			ki++
		}
		if ki == len(keys) {
			keys = append(keys, a.key())
		}
		b.ent[j] = b.ent[j]&(1<<32-1) | uint64(ki)<<32
	}
	if len(b.tmp) < len(b.ent) {
		b.tmp = make([]uint64, len(b.ent))
	}
	t := lo
	for ki := range keys {
		for _, x := range b.ent[lo:w] {
			if x>>32 == uint64(ki) {
				b.tmp[t] = x
				t++
			}
		}
	}
	copy(b.ent[lo:w], b.tmp[lo:w])
	for j := lo; j < w; {
		k, r := keys[b.ent[j]>>32], b.runEnd(j, w)
		for x := j; x < r; x++ {
			a, _ := b.level(uint32(b.ent[x])&^lastAtom, l)
			b.ent[x] = b.ent[x]&(1<<32-1) | uint64(a.val*fib)<<32
		}
		if err := b.fan(ni, l, k, j, r); err != nil {
			return err
		}
		j = r
	}
	return nil
}

// fan places ent[lo:hi], whose atom l all test k, through node ni's
// branch for k: one child per value, made in home-slot order, in a table
// sized once for all of them. An entry's key is its value's hash, which
// orders it by home slot at every table size (a home slot is the hash's
// top bits) and equals another's only for an equal value.
func (b *batch) fan(ni uint32, l int, k key, lo, hi int) error {
	e := b.e
	bi := e.branchFor(ni, k)
	fresh := e.branches.at(bi).nkids == 0
	if !b.sameKey(lo, hi) {
		b.sortByHash(lo, hi)
		vals := 0
		for j := lo; j < hi; j = b.runEnd(j, hi) {
			if fresh || e.branches.at(bi).kid(uint32(b.ent[j]>>32)*fibInv) == 0 {
				vals++
			}
		}
		e.branches.at(bi).reserve(int(e.branches.at(bi).nkids) + vals)
	}
	for j := lo; j < hi; {
		r := b.runEnd(j, hi)
		val := uint32(b.ent[j]>>32) * fibInv
		kid := uint32(0)
		if !fresh {
			kid = e.branches.at(bi).kid(val)
		}
		if kid == 0 {
			kid = e.newNode()
			e.branches.at(bi).addKid(val, kid)
		}
		if err := b.place(kid, l+1, j, r); err != nil {
			return err
		}
		j = r
	}
	return nil
}

// sameKey reports whether every entry of ent[lo:hi] has the same key.
func (b *batch) sameKey(lo, hi int) bool {
	for j := lo + 1; j < hi; j++ {
		if b.ent[j]>>32 != b.ent[lo]>>32 {
			return false
		}
	}
	return true
}

// runEnd returns the end of the run of equal keys that starts at ent[j].
func (b *batch) runEnd(j, hi int) int {
	r := j + 1
	for r < hi && b.ent[r]>>32 == b.ent[j]>>32 {
		r++
	}
	return r
}

// sortByHash sorts ent[lo:hi] stably by key: a most-significant-digit
// radix sort down to buckets of about 1<<sortRunLog2 entries, then an
// insertion sort that moves each entry only within its bucket.
func (b *batch) sortByHash(lo, hi int) {
	if len(b.tmp) < len(b.ent) {
		b.tmp = make([]uint64, len(b.ent))
	}
	bucketSort(b.ent[lo:hi], b.tmp[lo:hi], 0)
	for j := lo + 1; j < hi; j++ {
		x := b.ent[j]
		r := j
		for ; r > lo && b.ent[r-1]>>32 > x>>32; r-- {
			b.ent[r] = b.ent[r-1]
		}
		b.ent[r] = x
	}
}

// sortRunLog2 sizes the buckets sortByHash leaves to its insertion sort:
// 16 entries each on average.
const sortRunLog2 = 4

// bucketSort sorts ent stably by the key bits below its top done, at most
// eight bits a pass so that a pass scatters into few enough places to stay
// in cache, until a bucket holds about 1<<sortRunLog2 entries. tmp is
// scratch as long as ent.
func bucketSort(ent, tmp []uint64, done int) {
	width := min(bits.Len(uint(len(ent)))-sortRunLog2, 8, 32-done)
	if width <= 0 {
		return
	}
	shift := 32 - done - width
	digit := func(x uint64) uint32 { return uint32(x>>32) >> shift & (1<<width - 1) }
	var start, next [1<<8 + 1]uint32
	for _, x := range ent {
		start[digit(x)+1]++
	}
	for d := 1; d <= 1<<width; d++ {
		start[d] += start[d-1]
	}
	next = start
	for _, x := range ent {
		tmp[next[digit(x)]] = x
		next[digit(x)]++
	}
	copy(ent, tmp)
	for d := 0; d < 1<<width; d++ {
		bucketSort(ent[start[d]:start[d+1]], tmp[start[d]:start[d+1]], done+width)
	}
}

// undo takes a failed batch back out: every staged filter that got its
// terminal is unlinked, its atom run returned, in reverse order so freed
// runs go back on their lists as they came off, and the ids are
// withdrawn. Storage the batch pushed goes on the free lists or, for
// atoms and ids, is truncated.
func (b *batch) undo() {
	e := b.e
	for i := b.staged; i > 0; i-- {
		id := b.first + i - 1
		rec := *e.filt.at(id)
		e.unlink(id, rec)
		if rec.first < b.atoms0 {
			e.freeRun(rec.first, int(rec.n))
		}
	}
	e.atoms.truncate(b.atoms0)
	e.filt.truncate(b.first)
}
