package dpf

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	b := batch{e: e, first: first, vals0: e.vals.n}
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

// batch is one InsertBatch in progress. Its scratch is ent, a word per
// filter, and the 16 KB block sortEntries keeps on its stack.
type batch struct {
	e      *Engine
	first  uint32 // id of the batch's filter 0
	vals0  uint32 // value slab length before the batch
	staged uint32 // filters whose values, shape and id are stored

	// prefix is filter 0's canonical atoms, the first common of which
	// every filter of the batch shares.
	prefix [stackAtoms]atom
	common int

	// ent holds one entry per filter being placed: the batch index in the
	// low 31 bits, lastAtom when the filter ends at the node being
	// placed, and a sort key in the high 32 bits. place partitions it in
	// place, level by level, sorting by the whole word: by key, and among
	// equal keys by lastAtom and then batch order.
	ent []uint64
}

// lastAtom flags an entry whose filter has no atoms below the node its
// range is being placed at.
const lastAtom = 1 << 31

// stage stores every filter's values, in the order fill gave its atoms,
// takes a reference to its shape and issues its id: what n Inserts store,
// in the same order, so they take the same freed value runs. It also finds
// the batch's common prefix.
func (b *batch) stage(n int, fill func(i int, f *Filter)) error {
	e := b.e
	defer func() { e.spare = Filter{} }()
	for i := 0; i < n; i++ {
		fill(i, &e.spare)
		var gbuf [stackAtoms]atom
		given := gbuf[:0]
		for _, a := range e.spare.Atoms {
			p, err := pack(a)
			if err != nil {
				return err
			}
			given = append(given, p)
		}
		s := e.shapes.intern(given)
		slots := e.shapes.recs[s].slots
		if i == 0 {
			b.common = min(len(slots), stackAtoms)
			for l := 0; l < b.common; l++ {
				b.prefix[l] = given[slots[l].pos]
			}
		}
		common := 0
		for common < b.common && common < len(slots) && given[slots[common].pos] == b.prefix[common] {
			common++
		}
		b.common = common
		// DemuxLinear's early-exit cost depends on the order the caller gave.
		e.filt.push(filtRec{first: e.storeRun(given), shape: s})
		b.staged++
	}
	return nil
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
		if b.atoms(uint32(i)) == b.common {
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
	kid := e.find(e.branches.at(bi), a.val)
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

// atoms returns how many atoms filter i has.
func (b *batch) atoms(i uint32) int {
	return len(b.e.shapes.recs[b.e.filt.at(b.first+i).shape].slots)
}

// level returns filter i's atom at trie level l, which must exist, and
// whether it is the filter's last.
func (b *batch) level(i uint32, l int) (atom, bool) {
	rec := *b.e.filt.at(b.first + i)
	slots := b.e.shapes.recs[rec.shape].slots
	pos := slots[l].pos
	k := slots[pos].k
	return atom{k.off, k.size, k.mask, *b.e.vals.at(rec.first + pos)}, l == len(slots)-1
}

// chain places filter i below node ni, whose level is l, one atom at a
// time: Insert's walk.
func (b *batch) chain(ni uint32, l int, i uint32) error {
	for ; l < b.atoms(i); l++ {
		a, _ := b.level(i, l)
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
		var atoms []atom // in trie order
		for l := 0; l < b.atoms(i); l++ {
			a, _ := b.level(i, l)
			atoms = append(atoms, a)
		}
		return fmt.Errorf("%w: %v", ErrDuplicateFilter, atoms)
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
	// appearance and, within a key, by lastAtom and then batch order; then
	// fan out each key's run with atom l's hash as the key again.
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
	slices.Sort(b.ent[lo:w])
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
		sortEntries(b.ent[lo:hi])
		vals := 0
		for j := lo; j < hi; j = b.runEnd(j, hi) {
			if fresh || e.find(e.branches.at(bi), uint32(b.ent[j]>>32)*fibInv) == 0 {
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
			kid = e.find(e.branches.at(bi), val)
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

// sortEntries sorts ent by the whole word — by key, then by the lastAtom
// flag and batch index of the low word, so no two compare equal and no
// scratch as long as ent is needed to keep batch order among equal keys:
// a most-significant-digit radix sort on the word down to buckets of about
// 1<<sortRunLog2 entries, then an insertion sort that moves each entry
// only within its bucket.
func sortEntries(ent []uint64) {
	var block [sortBlock]uint64
	radixSort(ent, block[:], 0)
	for j := 1; j < len(ent); j++ {
		x := ent[j]
		r := j
		for ; r > 0 && ent[r-1] > x; r-- {
			ent[r] = ent[r-1]
		}
		ent[r] = x
	}
}

// sortRunLog2 sizes the buckets radixSort leaves to the insertion sort:
// 16 entries each on average.
const sortRunLog2 = 4

// sortBlock is the most entries a radixSort pass scatters through the
// block on sortEntries' stack; a longer range is partitioned in place.
// Scattering is two sequential sweeps, faster than swapping entries into
// place, and a block of 16 KB stays in cache.
const sortBlock = 2048

// radixSort partitions ent by the bits below its top done, at most eight
// bits a pass so that a pass moves entries between few enough places to
// stay in cache, until a bucket holds about 1<<sortRunLog2 entries. The
// passes go on past the key into the low word, so the many entries of a
// key that ties (one client's connections at a fan) are split too. A pass counts the buckets, then scatters ent through block if
// it fits there, and otherwise swaps each entry into the next free place
// of its bucket.
func radixSort(ent, block []uint64, done int) {
	width := min(bits.Len(uint(len(ent)))-sortRunLog2, 8, 64-done)
	if width <= 0 {
		return
	}
	shift := 64 - done - width
	digit := func(x uint64) int { return int(x>>shift) & (1<<width - 1) }
	var start, next [1<<8 + 1]int
	for _, x := range ent {
		start[digit(x)+1]++
	}
	for d := 1; d <= 1<<width; d++ {
		start[d] += start[d-1]
	}
	next = start
	if len(ent) <= len(block) {
		for _, x := range ent {
			block[next[digit(x)]] = x
			next[digit(x)]++
		}
		copy(ent, block[:len(ent)])
	} else {
		// A round walks each bucket's unfilled part and sends each entry
		// it meets to its own bucket, taking back what was there; one
		// taken back into the wrong bucket waits for the next round. The
		// four sends of a step do not wait on each other, as a chain of
		// swaps would.
		send := func(i int) {
			d := digit(ent[i])
			ent[i], ent[next[d]] = ent[next[d]], ent[i]
			next[d]++
		}
		for busy := true; busy; {
			busy = false
			for d := 0; d < 1<<width; d++ {
				i, end := next[d], start[d+1]
				busy = busy || i < end
				for ; i+4 <= end; i += 4 {
					send(i)
					send(i + 1)
					send(i + 2)
					send(i + 3)
				}
				for ; i < end; i++ {
					send(i)
				}
			}
		}
	}
	for d := 0; d < 1<<width; d++ {
		radixSort(ent[start[d]:start[d+1]], block, done+width)
	}
}

// undo takes a failed batch back out: every staged filter that got its
// terminal is unlinked, its value run returned and its shape released, in
// reverse order so freed runs go back on their lists as they came off,
// and the ids are withdrawn. Storage the batch pushed goes on the free
// lists or, for values and ids, is truncated.
func (b *batch) undo() {
	e := b.e
	for i := b.staged; i > 0; i-- {
		id := b.first + i - 1
		rec := *e.filt.at(id)
		e.unlink(id, rec)
		if rec.first < b.vals0 {
			e.freeRun(rec.first, len(e.shapes.recs[rec.shape].slots))
		}
		e.shapes.release(rec.shape)
	}
	e.vals.truncate(b.vals0)
	e.filt.truncate(b.first)
}
