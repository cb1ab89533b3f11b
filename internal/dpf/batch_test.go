package dpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ashs/internal/sim"
)

// batchSets are the filter sets TestInsertBatchMatchesInsert installs both
// ways, each drawn from rng and free of duplicates.
var batchSets = []struct {
	name string
	draw func(rng *rand.Rand) []*Filter
}{
	// tcp-pp's server: a listener per port, then 6-atom per-connection
	// filters sharing the (12,2),(23,1) prefix and fanning out on the
	// source address in a table, then on ports below it.
	{"tcp-pp", func(rng *rand.Rand) []*Filter {
		var fs []*Filter
		for p, n := 0, 1+rng.Intn(3); p < n; p++ {
			fs = append(fs, listenerFilter(0x0a000001, uint16(7000+p)))
		}
		for i, n := 0, rng.Intn(400); i < n; i++ {
			fs = append(fs, connFilter(0x0a000100+uint32(rng.Intn(150)), 0x0a000001,
				uint16(8000+rng.Intn(4)), uint16(7000+rng.Intn(3))))
		}
		return fs
	}},
	// udp-echo's fan: one 3-atom filter per source, every size from the
	// inline slots to a table that doubles several times.
	{"udp-echo", func(rng *rand.Rand) []*Filter {
		var fs []*Filter
		for i, n := 0, 1+rng.Intn(3000); i < n; i++ {
			fs = append(fs, churnFilter(0, 0).Eq32(26, 0x0a000000+uint32(rng.Intn(1<<20))))
		}
		return fs
	}},
	// A fan whose values each lead to filters that part on different
	// fields below it: the batch order within a value's run decides which
	// branch comes first there, so a sort must keep it. With a few values
	// and thousands of filters, as tcp-pp's connections from a few
	// clients, most of a fan's entries tie on their key.
	{"siblings", func(rng *rand.Rand) []*Filter {
		var fs []*Filter
		vals := []int{2, 4, 64}[rng.Intn(3)]
		for i, n := 0, 32+rng.Intn(3000); i < n; i++ {
			f := NewFilter().Eq16(12, 0x0800).Eq32(26, uint32(rng.Intn(vals)))
			fs = append(fs, f.Eq16(30+4*rng.Intn(2), uint16(i)))
		}
		return fs
	}},
	// randomFilter's overlapping prefixes, masked atoms and atoms given
	// out of trie order.
	{"random", func(rng *rand.Rand) []*Filter {
		var fs []*Filter
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			fs = append(fs, randomFilter(rng))
		}
		return fs
	}},
}

// dedupe drops every filter that duplicates an earlier one of fs or one of
// installed: the same atoms, in any order.
func dedupe(fs, installed []*Filter) []*Filter {
	seen := map[string]bool{}
	for _, f := range installed {
		seen[atomSet(f)] = true
	}
	var out []*Filter
	for _, f := range fs {
		if k := atomSet(f); !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// atomSet is f's atoms as a set: equal for two filters exactly when
// sameAtomSet holds.
func atomSet(f *Filter) string {
	var as [][4]uint32
	for _, a := range f.Atoms {
		as = append(as, [4]uint32{uint32(a.Offset), uint32(a.Size), a.mask(), a.Value})
	}
	slices.SortFunc(as, func(x, y [4]uint32) int { return slices.Compare(x[:], y[:]) })
	var b []byte
	for _, a := range as {
		for _, w := range a {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
	}
	return string(b)
}

// churned returns an engine and its installed filters after random inserts
// and removes, so a batch lands in a trie with freed nodes, branches, atom
// runs and tables that shrank; rng draws the same history for both ways.
func churned(rng *rand.Rand, set func(*rand.Rand) []*Filter) (*Engine, []*Filter, []FilterID) {
	e := NewEngine()
	var fs []*Filter
	var ids []FilterID
	if rng.Intn(2) == 0 {
		return e, nil, nil
	}
	for _, f := range dedupe(set(rng), nil) {
		id, err := e.Insert(f)
		if err != nil {
			panic(err)
		}
		fs, ids = append(fs, f), append(ids, id)
	}
	for i := len(ids) - 1; i >= 0; i-- {
		if rng.Intn(3) == 0 {
			if err := e.Remove(ids[i]); err != nil {
				panic(err)
			}
			fs, ids = append(fs[:i], fs[i+1:]...), append(ids[:i], ids[i+1:]...)
		}
	}
	return e, fs, ids
}

// packetFor is a packet filter f accepts, over a background of noise.
func packetFor(rng *rand.Rand, f *Filter) []byte {
	pkt := make([]byte, 64)
	for i := range pkt {
		pkt[i] = byte(rng.Intn(4))
	}
	for _, a := range f.Atoms {
		v := a.Value | uint32(rng.Uint32())&^a.mask()
		for i := 0; i < a.Size; i++ {
			pkt[a.Offset+i] = byte(v >> (8 * (a.Size - 1 - i)))
		}
	}
	return pkt
}

// sameTrie compares the subtries at node x of e and node y of f: equal
// terminals, the same branch keys in the same order, and for each branch
// the same values leading to equal subtries.
func sameTrie(e *Engine, x uint32, f *Engine, y uint32) error {
	nx, ny := e.nodes.at(x), f.nodes.at(y)
	if nx.terminal != ny.terminal {
		return fmt.Errorf("terminal %d, want %d", nx.terminal, ny.terminal)
	}
	bx, by := nx.first, ny.first
	for ; bx != nilIdx && by != nilIdx; bx, by = e.branches.at(bx).next, f.branches.at(by).next {
		brx, bry := e.branches.at(bx), f.branches.at(by)
		if brx.k != bry.k || brx.nkids != bry.nkids || (brx.tab == nil) != (bry.tab == nil) ||
			brx.tab != nil && len(brx.tab.slots) != len(bry.tab.slots) {
			return fmt.Errorf("branch %+v with %d children, want %+v with %d", brx.k, brx.nkids, bry.k, bry.nkids)
		}
		var err error
		brx.eachKid(func(val, kid uint32) {
			if err == nil {
				if other := bry.kid(val); other == 0 {
					err = fmt.Errorf("branch %+v: no child for %#x", brx.k, val)
				} else if err = sameTrie(e, kid, f, other); err != nil {
					err = fmt.Errorf("%+v=%#x: %w", brx.k, val, err)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	if bx != nilIdx || by != nilIdx {
		return errors.New("branch lists of different lengths")
	}
	return nil
}

// TestInsertBatchMatchesInsert: a batch builds the trie Insert-at-a-time
// builds. For random filter sets (tcp-pp's shared 6-atom prefixes,
// udp-echo's fan, masked and reordered atoms), into fresh engines and into
// engines with freed storage, both ways issue the same ids and the same
// trie, branch order and table sizes included; Demux and DemuxLinear give
// the same id, cycles and match on the own packets of a sample of the
// filters and on random ones, before and after Reorder, and DemuxLinear's
// cycles are Interpret's over each filter's atoms in its caller's order;
// and Depth, Len and the census agree, all but ProbeMax, which depends on
// the order entries met in a probe cluster (their summed displacement does
// not).
func TestInsertBatchMatchesInsert(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for _, set := range batchSets {
		for round := 0; round < rounds; round++ {
			seed := int64(round)<<8 | int64(len(set.name))
			seq, installed, _ := churned(rand.New(rand.NewSource(seed)), set.draw)
			bat, _, _ := churned(rand.New(rand.NewSource(seed)), set.draw)
			rng := rand.New(rand.NewSource(seed + 1))
			fs := dedupe(set.draw(rng), installed)

			var want []FilterID
			for _, f := range fs {
				id, err := seq.Insert(f)
				if err != nil {
					t.Fatalf("%s round %d: insert: %v", set.name, round, err)
				}
				want = append(want, id)
			}
			first, err := bat.InsertBatch(len(fs), func(i int, g *Filter) { g.Atoms = fs[i].Atoms })
			if err != nil {
				t.Fatalf("%s round %d: batch of %d: %v", set.name, round, len(fs), err)
			}
			if len(want) > 0 && first != want[0] || bat.filt.n != seq.filt.n {
				t.Fatalf("%s round %d: batch issued ids from %d to %d, Insert from %v",
					set.name, round, first, bat.filt.n, want)
			}
			if err := sameTrie(bat, 0, seq, 0); err != nil {
				t.Fatalf("%s round %d: %v", set.name, round, err)
			}
			cb, cs := bat.Census(), seq.Census()
			cb.ProbeMax, cs.ProbeMax = 0, 0
			if cb != cs || bat.Depth() != seq.Depth() || bat.Len() != seq.Len() {
				t.Fatalf("%s round %d: batch census %+v depth %d len %d, Insert %+v depth %d len %d",
					set.name, round, cb, bat.Depth(), bat.Len(), cs, seq.Depth(), seq.Len())
			}
			// Every demux walks all the filters, so the packets are those
			// of a sample of them, and random ones.
			all := append(installed, fs...) // in id order
			for pass := 0; pass < 2; pass++ {
				for j := 0; j < min(len(all), 16)+8; j++ {
					pkt := randomPacket(rng, all)
					if j < min(len(all), 16) {
						pkt = packetFor(rng, all[rng.Intn(len(all))])
					}
					if pass == 0 {
						// DemuxLinear walks each filter's atoms in the order
						// its caller gave them, out of trie order or not;
						// Reorder does not touch it.
						var interp sim.Time
						for _, f := range all {
							_, c := Interpret(f, pkt)
							interp += c
						}
						if _, c, _ := bat.DemuxLinear(pkt); c != interp {
							t.Fatalf("%s round %d: DemuxLinear took %d cycles, Interpret over the filters as given %d (pkt %x)",
								set.name, round, c, interp, pkt)
						}
					}
					for _, demux := range []func(*Engine, []byte) (FilterID, sim.Time, bool){
						(*Engine).Demux, (*Engine).DemuxLinear,
					} {
						bi, bc, bok := demux(bat, pkt)
						si, sc, sok := demux(seq, pkt)
						if bi != si || bc != sc || bok != sok {
							t.Fatalf("%s round %d pass %d: batch demux %d,%d,%v, Insert %d,%d,%v (pkt %x)",
								set.name, round, pass, bi, bc, bok, si, sc, sok, pkt)
						}
					}
				}
				bat.Reorder()
				seq.Reorder()
			}
		}
	}
}

// TestSortEntriesIsTotal: the sort a batch fans out by orders entries by
// the whole word, so among equal keys the lastAtom flag and then the batch
// index decide, in ranges short enough to scatter through the stack block
// and in ranges long enough to be partitioned in place. Its radix passes
// go on into the low word, so even when a few keys share thousands of
// entries the insertion sort that finishes moves each entry only within a
// small bucket: its moves grow linearly with the entries.
func TestSortEntriesIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keys := range []int{2, 4, 64} {
		for _, n := range []int{1, 31, 200, sortBlock, 3 * sortBlock, 70_000} {
			ent := make([]uint64, n)
			for i := range ent {
				ent[i] = uint64(uint32(rng.Intn(keys))*fib)<<32 | uint64(i)
				if rng.Intn(4) == 0 {
					ent[i] |= lastAtom
				}
			}
			rng.Shuffle(n, func(i, j int) { ent[i], ent[j] = ent[j], ent[i] })
			want := slices.Clone(ent)
			slices.Sort(want)
			got := slices.Clone(ent)
			if sortEntries(got); !slices.Equal(got, want) {
				t.Fatalf("%d keys, %d entries: sorted %x..., want %x...", keys, n, got[:min(n, 8)], want[:min(n, 8)])
			}
			var block [sortBlock]uint64
			radixSort(ent, block[:], 0)
			moves := 0
			for j := range ent {
				for r := j; r > 0 && ent[r-1] > ent[r]; r-- {
					ent[r-1], ent[r] = ent[r], ent[r-1]
					moves++
				}
			}
			if moves > 8*n {
				t.Errorf("%d keys, %d entries: the insertion sort made %d moves, want at most %d", keys, n, moves, 8*n)
			}
		}
	}
}

// TestInsertBatchFailsWhole: a batch with a duplicate, of its own or of an
// installed filter, or with an atom Insert refuses, installs nothing: Len,
// the next id and every Demux are as before, the refusal names the
// reason, what the batch made is back on the free lists, and the atom
// runs it took from them are back where they were.
func TestInsertBatchFailsWhole(t *testing.T) {
	base := func() (*Engine, []*Filter) {
		e := NewEngine()
		var fs []*Filter
		for v := 0; v < 40; v++ {
			f := churnFilter(v%4, byte(v))
			if _, err := e.Insert(f); err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
		for _, id := range []FilterID{3, 17, 30} {
			if err := e.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		e.Reorder()
		return e, fs
	}
	fan := func(n int) []*Filter {
		var fs []*Filter
		for v := 0; v < n; v++ {
			fs = append(fs, churnFilter(3, 0).Eq32(40, uint32(v)))
		}
		return fs
	}
	_, installed := base()
	for _, c := range []struct {
		name string
		fs   []*Filter
		dup  bool
	}{
		{"duplicate in the batch", append(fan(300), fan(300)[123]), true},
		{"duplicate in the batch, adjacent", append(fan(2), fan(2)[1]), true},
		{"duplicate of an installed filter", append(fan(50), installed[20]), true},
		{"duplicate of an installed filter, first", append([]*Filter{installed[5]}, fan(50)...), true},
		{"duplicate after filters that took freed atom runs",
			[]*Filter{churnFilter(1, 100), churnFilter(3, 101), churnFilter(2, 102), installed[21]}, true},
		{"bad atom", append(fan(300), NewFilter().Eq16(12, 0x0800).Eq32(-4, 1)), false},
		{"bad atom, alone", []*Filter{NewFilter(Atom{Offset: 4, Size: 3})}, false},
	} {
		e, _ := base()
		pkts := make([][]byte, 0, 80)
		for v := byte(0); v < 40; v++ {
			pkts = append(pkts, churnPacket(v, 0), churnPacket(v, 0x40))
		}
		type result struct {
			id     FilterID
			cycles sim.Time
			ok     bool
		}
		demux := func() (rs []result) {
			for _, p := range pkts {
				id, c, ok := e.Demux(p)
				lid, lc, lok := e.DemuxLinear(p)
				rs = append(rs, result{id, c, ok}, result{lid, lc, lok})
			}
			return rs
		}
		before, n, next, atoms := demux(), e.Len(), e.filt.n, e.Census()
		_, err := e.InsertBatch(len(c.fs), func(i int, g *Filter) { g.Atoms = c.fs[i].Atoms })
		if err == nil || errors.Is(err, ErrDuplicateFilter) != c.dup {
			t.Fatalf("%s: err %v", c.name, err)
		}
		after := demux()
		if e.Len() != n || e.filt.n != next || !e.reordered || fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("%s: Len %d → %d, next id %d → %d, reordered %v; demux changed: %v",
				c.name, n, e.Len(), next, e.filt.n, e.reordered, fmt.Sprint(after) != fmt.Sprint(before))
		}
		nodes, branches, terminals := reachable(e, 0)
		cs := e.Census()
		if nodes+cs.FreeNodes != cs.Nodes || branches+cs.FreeBranches != cs.Branches || terminals != n ||
			cs.Atoms != atoms.Atoms || cs.FreeAtoms != atoms.FreeAtoms {
			t.Fatalf("%s: storage leaked: %d nodes, %d branches, %d terminals reachable; census %+v, before %+v",
				c.name, nodes, branches, terminals, cs, atoms)
		}
		if id, err := e.Insert(churnFilter(5, 0)); err != nil || id != FilterID(next) {
			t.Fatalf("%s: next insert got id %d (%v), want %d", c.name, id, err, next)
		}
	}
}

// TestInsertBatchHeapShape: a 100 000-filter batch leaves what 100 000
// Inserts leave, slab pages and tables, not objects per filter: its scratch
// is garbage once it returns.
func TestInsertBatchHeapShape(t *testing.T) {
	const n = 100_000
	e := NewEngine()
	f := churnFilter(0, 0)
	src := &f.Atoms[2]
	_, o0 := mallocsAndObjects()
	if _, err := e.InsertBatch(n, func(i int, g *Filter) { src.Value = uint32(i); g.Atoms = f.Atoms }); err != nil {
		t.Fatal(err)
	}
	_, o1 := mallocsAndObjects()
	if added := int64(o1) - int64(o0); added >= 512 {
		t.Errorf("%d live heap objects for %d filters, want < 512", added, n)
	}
	if e.Len() != n || e.Depth() != 3 {
		t.Fatalf("Len %d Depth %d", e.Len(), e.Depth())
	}
}
