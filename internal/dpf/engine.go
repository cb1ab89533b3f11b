package dpf

import (
	"errors"
	"fmt"
	"math"

	"ashs/internal/sim"
)

// FilterID names an installed filter. Ids are issued ascending and never
// reused: the lowest-id tie-break is install order.
type FilterID int

// ErrDuplicateFilter is returned when an identical filter is already
// installed (the packet would be ambiguous).
var ErrDuplicateFilter = errors.New("dpf: duplicate filter")

// Engine is the kernel's demultiplexing engine: all installed filters
// merged into a discrimination trie, so one pass over the packet decides
// ownership no matter how many filters are installed. This is the property
// that makes DPF an order of magnitude faster than engines that try each
// filter in turn.
//
// The trie is stored flat (see slab): nodes, branches, per-id filter
// records and atoms each live in an index-addressed slab, and a branch
// with more than a couple of children keeps them in an open-addressed
// table of plain integers. Nothing is allocated per filter, and Remove is
// O(depth).
type Engine struct {
	nodes    slab[node] // index 0 is the root
	branches slab[branch]
	// filt has one record per FilterID ever issued (8 bytes each, never
	// reclaimed: that is what id non-reuse costs); the next id is filt.n.
	filt  slab[filtRec]
	atoms slab[atom] // each filter's atoms as one run, in install order

	// Freed nodes and branches are threaded through node.first and
	// branch.next; freed atom runs through the first atom's val, one list
	// per run length (freeRuns[n]).
	freeNode, freeBranch uint32
	freeRuns             []uint32

	live int // installed filters

	// reordered is set by Reorder and cleared by Insert/Remove: the
	// per-branch maxDepth bounds it computed are only trusted while the
	// trie shape is unchanged, so demux-time pruning is gated on it.
	reordered bool
}

// node is one trie level. Each branch discriminates on a (offset, size,
// mask) field; filters sharing a prefix share branches.
type node struct {
	terminal int32  // filter that matches if the walk ends here, or noTerminal
	first    uint32 // head of the branch list, in install order (Reorder: by hits)
}

const noTerminal = -1

// key is the discrimination-trie grouping key: atoms testing the same field
// can share one load across filters.
type key struct{ off, size, mask uint32 }

// inlineKids is how many children a branch holds before it allocates a
// table: the shared-prefix levels and every level of a per-connection
// filter chain have one.
const inlineKids = 2

type branch struct {
	// hits counts packets that descended this branch; Reorder sorts each
	// node's branch list by it so generated code tests hot fields first.
	hits uint64
	// tab holds the children once there are more than inlineKids (and
	// from then on); before that they are inl[:nkids].
	tab   *kidTable
	k     key
	next  uint32 // next branch of the owning node (or next free branch)
	inl   [inlineKids]kidSlot
	nkids uint32
	// maxDepth is the deepest terminal below this branch, relative to the
	// owning node (valid only while Engine.reordered holds).
	maxDepth int32
}

// kid returns the child reached through val, or 0.
func (b *branch) kid(val uint32) uint32 {
	if t := b.tab; t != nil {
		return t.slots[t.locate(val)].kid
	}
	for _, s := range b.inl[:b.nkids] {
		if s.val == val {
			return s.kid
		}
	}
	return 0
}

// addKid records a child for a value that has none.
func (b *branch) addKid(val, kid uint32) {
	switch t := b.tab; {
	case t == nil && b.nkids < inlineKids:
		b.inl[b.nkids] = kidSlot{val, kid}
		b.nkids++
		return
	case t == nil:
		b.tab = newKidTable(3)
		for _, s := range b.inl {
			b.tab.slots[b.tab.locate(s.val)] = s
		}
		b.inl = [inlineKids]kidSlot{}
	case 4*(int(b.nkids)+1) > 3*len(t.slots):
		t.grow()
	}
	b.tab.slots[b.tab.locate(val)] = kidSlot{val, kid}
	b.nkids++
}

// delKid forgets the child reached through val, which must exist.
func (b *branch) delKid(val uint32) {
	b.nkids--
	if t := b.tab; t != nil {
		t.del(t.locate(val))
		return
	}
	for i := range b.inl[:b.nkids] {
		if b.inl[i].val == val {
			b.inl[i] = b.inl[b.nkids]
			break
		}
	}
	b.inl[b.nkids] = kidSlot{}
}

// eachKid calls fn for every child, in no particular order: iterate only
// to take a maximum.
func (b *branch) eachKid(fn func(val, kid uint32)) {
	if b.tab == nil {
		for _, s := range b.inl[:b.nkids] {
			fn(s.val, s.kid)
		}
		return
	}
	for _, s := range b.tab.slots {
		if s.kid != 0 {
			fn(s.val, s.kid)
		}
	}
}

// filtRec locates an issued id's atoms.
type filtRec struct {
	first uint32 // index of the first atom
	n     int32  // atom count, or removed
}

const removed = -1

// atom is an Atom as stored: validated, narrowed to 16 bytes, mask resolved.
type atom struct{ off, size, mask, val uint32 }

func (a atom) String() string {
	return Atom{Offset: int(a.off), Size: int(a.size), Mask: a.mask, Value: a.val}.String()
}

func (a atom) key() key { return key{a.off, a.size, a.mask} }

// pack validates and narrows a caller's atom.
func pack(a Atom) (atom, error) {
	if a.Offset < 0 || a.Offset > math.MaxInt32 || a.Size != 1 && a.Size != 2 && a.Size != 4 {
		return atom{}, fmt.Errorf("dpf: atom at offset %d, size %d: offset must fit 31 bits and size be 1, 2 or 4",
			a.Offset, a.Size)
	}
	return atom{off: uint32(a.Offset), size: uint32(a.Size), mask: a.mask(), val: a.Value}, nil
}

// sortCanonical sorts atoms into trie order (offset, size, mask), stably:
// an insertion sort, because filters are a few atoms long and sort.Slice
// allocates.
func sortCanonical(atoms []atom) {
	for i := 1; i < len(atoms); i++ {
		x := atoms[i]
		j := i
		for ; j > 0 && x.key().less(atoms[j-1].key()); j-- {
			atoms[j] = atoms[j-1]
		}
		atoms[j] = x
	}
}

// less orders keys the way the trie's levels are ordered.
func (k key) less(o key) bool {
	if k.off != o.off {
		return k.off < o.off
	}
	if k.size != o.size {
		return k.size < o.size
	}
	return k.mask < o.mask
}

// stackAtoms is the filter length handled without touching the heap.
const stackAtoms = 8

// NewEngine returns an empty demux engine.
func NewEngine() *Engine {
	e := &Engine{freeNode: nilIdx, freeBranch: nilIdx}
	e.nodes.push(node{terminal: noTerminal, first: nilIdx})
	return e
}

func (e *Engine) newNode() uint32 {
	fresh := node{terminal: noTerminal, first: nilIdx}
	i := e.freeNode
	if i == nilIdx {
		return e.nodes.push(fresh)
	}
	n := e.nodes.at(i)
	e.freeNode = n.first
	*n = fresh
	return i
}

func (e *Engine) newBranch(k key) uint32 {
	fresh := branch{k: k, next: nilIdx}
	i := e.freeBranch
	if i == nilIdx {
		return e.branches.push(fresh)
	}
	b := e.branches.at(i)
	e.freeBranch = b.next
	*b = fresh
	return i
}

// storeRun copies atoms into consecutive slab entries — a freed run of the
// same length when there is one — and returns the first index.
func (e *Engine) storeRun(atoms []atom) uint32 {
	n := len(atoms)
	if n == 0 {
		return 0
	}
	if n < len(e.freeRuns) && e.freeRuns[n] != nilIdx {
		first := e.freeRuns[n]
		e.freeRuns[n] = e.atoms.at(first).val
		for i, a := range atoms {
			*e.atoms.at(first + uint32(i)) = a
		}
		return first
	}
	first := e.atoms.push(atoms[0])
	for _, a := range atoms[1:] {
		e.atoms.push(a)
	}
	return first
}

func (e *Engine) freeRun(first uint32, n int) {
	if n == 0 {
		return
	}
	for len(e.freeRuns) <= n {
		e.freeRuns = append(e.freeRuns, nilIdx)
	}
	e.atoms.at(first).val = e.freeRuns[n]
	e.freeRuns[n] = first
}

// findBranch returns the branch of node ni that tests k and the branch
// before it in ni's list, each nilIdx when there is none.
func (e *Engine) findBranch(ni uint32, k key) (bi, prev uint32) {
	prev = nilIdx
	for bi = e.nodes.at(ni).first; bi != nilIdx; {
		b := e.branches.at(bi)
		if b.k == k {
			break
		}
		prev, bi = bi, b.next
	}
	return bi, prev
}

// Depth reports the deepest trie level (atoms along the longest installed
// path). It is the structural bound on a demux walk: the scale experiments
// report it next to the measured cyc/msg to show the walk depth — not the
// filter count — is what demux cost tracks.
func (e *Engine) Depth() int { return e.depth(0) }

func (e *Engine) depth(ni uint32) int {
	deepest := 0
	e.eachBranch(ni, func(b *branch) {
		b.eachKid(func(_, kid uint32) {
			if d := 1 + e.depth(kid); d > deepest {
				deepest = d
			}
		})
	})
	return deepest
}

// eachBranch calls fn for node ni's branches in list order. fn must not
// change the trie's shape.
func (e *Engine) eachBranch(ni uint32, fn func(b *branch)) {
	for bi := e.nodes.at(ni).first; bi != nilIdx; {
		b := e.branches.at(bi)
		fn(b)
		bi = b.next
	}
}

// Insert installs a filter and returns its id. Filters are merged into the
// trie at install time — the "compile when installed" half of DPF. The
// engine copies the atoms and keeps no reference to f: a caller installing
// many filters may patch and re-insert one Filter. An atom whose offset is
// negative or whose size is not 1, 2 or 4 is rejected.
func (e *Engine) Insert(f *Filter) (FilterID, error) {
	if e.filt.n > math.MaxInt32 {
		return 0, errors.New("dpf: filter ids exhausted")
	}
	var ibuf, cbuf [stackAtoms]atom
	given := ibuf[:0]
	for _, a := range f.Atoms {
		p, err := pack(a)
		if err != nil {
			return 0, err
		}
		given = append(given, p)
	}
	atoms := append(cbuf[:0], given...)
	sortCanonical(atoms)

	ni := uint32(0)
	for _, a := range atoms {
		bi, prev := e.findBranch(ni, a.key())
		if bi == nilIdx {
			// Append: Demux charges branches in install order.
			bi = e.newBranch(a.key())
			if prev == nilIdx {
				e.nodes.at(ni).first = bi
			} else {
				e.branches.at(prev).next = bi
			}
		}
		kid := e.branches.at(bi).kid(a.val)
		if kid == 0 {
			kid = e.newNode()
			e.branches.at(bi).addKid(a.val, kid)
		}
		ni = kid
	}
	n := e.nodes.at(ni)
	if n.terminal != noTerminal {
		// The whole path existed, so nothing was added. Format a copy:
		// handing atoms to fmt would move cbuf to the heap on every call.
		return 0, fmt.Errorf("%w: %v", ErrDuplicateFilter, append([]atom(nil), atoms...))
	}
	n.terminal = int32(e.filt.n)

	// DemuxLinear's early-exit cost depends on the order the caller gave.
	id := e.filt.push(filtRec{first: e.storeRun(given), n: int32(len(given))})
	e.live++
	e.reordered = false // trie shape changed: depth bounds stale
	return FilterID(id), nil
}

// Remove uninstalls a filter.
func (e *Engine) Remove(id FilterID) error {
	var rec *filtRec
	if id >= 0 && int64(id) < int64(e.filt.n) {
		rec = e.filt.at(uint32(id))
	}
	if rec == nil || rec.n == removed {
		return fmt.Errorf("dpf: no filter %d", id)
	}
	var buf [stackAtoms]atom
	atoms := buf[:0]
	for i := uint32(0); i < uint32(rec.n); i++ {
		atoms = append(atoms, *e.atoms.at(rec.first + i))
	}
	sortCanonical(atoms)

	// Walk to the terminal, remembering how each node was reached.
	type step struct{ node, branch, prev uint32 }
	var pbuf [stackAtoms]step
	path := pbuf[:0]
	ni := uint32(0)
	for _, a := range atoms {
		bi, prev := e.findBranch(ni, a.key())
		kid := uint32(0)
		if bi != nilIdx {
			kid = e.branches.at(bi).kid(a.val)
		}
		if kid == 0 {
			panic(fmt.Sprintf("dpf: filter %d is installed but not in the trie", id))
		}
		path = append(path, step{ni, bi, prev})
		ni = kid
	}
	e.nodes.at(ni).terminal = noTerminal

	// Prune emptied nodes and branches on the way back; the root stays.
	for i := len(path) - 1; i >= 0; i-- {
		n := e.nodes.at(ni)
		if n.terminal != noTerminal || n.first != nilIdx {
			break
		}
		n.first, e.freeNode = e.freeNode, ni
		st := path[i]
		b := e.branches.at(st.branch)
		b.delKid(atoms[i].val)
		if b.nkids == 0 {
			if st.prev == nilIdx {
				e.nodes.at(st.node).first = b.next
			} else {
				e.branches.at(st.prev).next = b.next
			}
			b.tab = nil
			b.next, e.freeBranch = e.freeBranch, st.branch
		}
		ni = st.node
	}

	e.freeRun(rec.first, int(rec.n))
	rec.n = removed
	e.live--
	e.reordered = false // trie shape changed: depth bounds stale
	return nil
}

// Len reports the number of installed filters.
func (e *Engine) Len() int { return e.live }

// trieStepCycles models one trie level in generated code: specialized
// field load + dispatch on the value.
const trieStepCycles = CompiledCyclesPerAtom + 2

// Demux classifies a packet in one trie walk. It returns the most specific
// matching filter (deepest terminal, ties broken toward the oldest
// install), the modeled cycle cost, and whether any filter matched.
//
// The walk is exhaustive over matching branches: a node can discriminate on
// several distinct fields (a 4-atom listener filter and a 6-atom
// per-connection filter diverge into sibling branches at their common
// prefix), and the deepest terminal must win regardless of which branch was
// installed first. Each branch examined at a visited node charges one
// generated-code trie step, so the cost stays O(depth × branching), not
// O(filters).
func (e *Engine) Demux(pkt []byte) (FilterID, sim.Time, bool) {
	w := walk{e: e, pkt: pkt, bestDepth: -1}
	w.visit(0, 0)
	return FilterID(w.best), w.cycles, w.bestDepth >= 0
}

// walk is one Demux in progress.
type walk struct {
	e         *Engine
	pkt       []byte
	cycles    sim.Time
	best      int32
	bestDepth int // -1 until a terminal matched
}

func (w *walk) visit(ni uint32, depth int) {
	n := w.e.nodes.at(ni)
	if t := n.terminal; t != noTerminal && (depth > w.bestDepth || depth == w.bestDepth && t < w.best) {
		w.best, w.bestDepth = t, depth
	}
	for bi := n.first; bi != nilIdx; {
		b := w.e.branches.at(bi)
		bi = b.next
		// After Reorder, hot branches come first and each branch carries
		// the deepest terminal reachable below it, so a branch whose
		// entire subtree is strictly shallower than the best match so
		// far cannot change the outcome (equal depth still ties toward
		// the lowest id, so only *strictly* losing branches skip). The
		// generated code pays one bound test instead of a full step.
		if w.e.reordered && depth+int(b.maxDepth) < w.bestDepth {
			w.cycles += prunedStepCycles
			continue
		}
		w.cycles += trieStepCycles
		v, ok := field(w.pkt, int(b.k.off), int(b.k.size))
		if !ok {
			continue
		}
		if kid := b.kid(v & b.k.mask); kid != 0 {
			b.hits++
			w.visit(kid, depth+1)
		}
	}
}

// DemuxLinear classifies a packet by trying every installed filter in turn
// with the interpreted matcher — the MPF-class baseline the paper compares
// DPF against. It scans all filters and returns the most specific match
// (most atoms, ties broken toward the lowest id) so its dispatch decision
// agrees with the trie's deepest-terminal rule; the cost of the full scan
// is what the trie's one-pass walk is measured against.
func (e *Engine) DemuxLinear(pkt []byte) (FilterID, sim.Time, bool) {
	var cycles sim.Time
	best := FilterID(0)
	bestAtoms := int32(-1)
	for id := uint32(0); id < e.filt.n; id++ {
		rec := *e.filt.at(id)
		if rec.n == removed {
			continue
		}
		// Interpret, over the stored atoms.
		matched := true
		for i := uint32(0); i < uint32(rec.n); i++ {
			cycles += InterpCyclesPerAtom
			a := e.atoms.at(rec.first + i)
			if v, ok := field(pkt, int(a.off), int(a.size)); !ok || v&a.mask != a.val {
				matched = false
				break
			}
		}
		if matched && rec.n > bestAtoms {
			best, bestAtoms = FilterID(id), rec.n
		}
	}
	return best, cycles, bestAtoms >= 0
}

// Census is the engine's storage, for reading the trie's footprint without
// a heap profile. Nodes, Branches and Atoms count slab entries ever issued;
// the Free* of them are on a free list awaiting reuse, the rest are in the
// trie. IDs counts filter records (one per id ever issued).
type Census struct {
	Nodes, FreeNodes       int
	Branches, FreeBranches int
	Atoms, FreeAtoms       int
	IDs, LiveIDs           int
	// Tables counts branches whose children outgrew the inline slots;
	// TableSlots and TableKids are those tables' capacity and occupancy.
	Tables, TableSlots, TableKids int
	// Bytes is everything above: slab pages at capacity plus table slots.
	Bytes int
}

// Census walks the free lists and the branch slab; O(storage), for
// diagnostics only.
func (e *Engine) Census() Census {
	c := Census{
		Nodes: int(e.nodes.n), Branches: int(e.branches.n), Atoms: int(e.atoms.n),
		IDs: int(e.filt.n), LiveIDs: e.live,
		Bytes: e.nodes.bytes() + e.branches.bytes() + e.atoms.bytes() + e.filt.bytes(),
	}
	for i := e.freeNode; i != nilIdx; i = e.nodes.at(i).first {
		c.FreeNodes++
	}
	for i := e.freeBranch; i != nilIdx; i = e.branches.at(i).next {
		c.FreeBranches++
	}
	for n, head := range e.freeRuns {
		for i := head; i != nilIdx; i = e.atoms.at(i).val {
			c.FreeAtoms += n
		}
	}
	for i := uint32(0); i < e.branches.n; i++ {
		if b := e.branches.at(i); b.tab != nil {
			c.Tables++
			c.TableSlots += len(b.tab.slots)
			c.TableKids += int(b.nkids)
		}
	}
	c.Bytes += c.TableSlots * 8
	return c
}
