package dpf

import (
	"errors"
	"runtime"
	"testing"

	"ashs/internal/sim"
)

// churnFilter builds one of six filter shapes around a one-byte value.
// Shapes 0 and 3 fan out 256 ways at the third level and shape 1 at the
// second, so a run of inserts takes those branches from the inline slots
// through every table size; shape 2 is shape 1 in another install order (a
// duplicate to the trie, a different early-exit order to DemuxLinear);
// shape 4 is a masked atom; shape 5 is the empty filter.
func churnFilter(shape int, v byte) *Filter {
	src := 0x0a000000 | uint32(v)
	switch shape {
	case 0:
		return NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq32(26, src)
	case 1:
		return NewFilter().Eq16(12, 0x0800).Eq32(26, src)
	case 2:
		return NewFilter().Eq32(26, src).Eq16(12, 0x0800)
	case 3:
		return NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq32(26, src).Eq16(34, uint16(v)).Eq16(36, 7)
	case 4:
		return NewFilter().Masked16(30, 0xff00, uint16(v)<<8)
	}
	return NewFilter()
}

// churnPacket is accepted by every churnFilter shape built around v; the
// flags truncate it or change its protocol so that shallower filters win.
func churnPacket(v, flags byte) []byte {
	pkt := make([]byte, 64)
	pkt[12], pkt[13] = 0x08, 0x00
	pkt[23] = 17
	pkt[26], pkt[29] = 0x0a, v
	pkt[30] = v
	pkt[35] = v
	pkt[37] = 7
	if flags&0x40 != 0 {
		pkt[23] = 6
	}
	if flags&0x80 != 0 {
		pkt = pkt[:32]
	}
	return pkt
}

// churn is the differential driver behind FuzzDPFChurn: an engine next to
// the test's own record of what it installed there.
type churn struct {
	t       *testing.T
	e       *Engine
	filters []*Filter
	ids     []FilterID
	lastID  FilterID
}

func (c *churn) insert(f *Filter) {
	id, err := c.e.Insert(f)
	dup := false
	for _, g := range c.filters {
		dup = dup || sameAtomSet(f, g)
	}
	switch {
	case dup && !errors.Is(err, ErrDuplicateFilter):
		c.t.Fatalf("duplicate %v accepted as %d (err %v)", f.Atoms, id, err)
	case dup:
		return
	case err != nil:
		c.t.Fatalf("insert %v: %v", f.Atoms, err)
	case id <= c.lastID:
		c.t.Fatalf("id %d issued after %d: ids must ascend and never be reused", id, c.lastID)
	}
	c.lastID = id
	c.filters, c.ids = append(c.filters, f), append(c.ids, id)
}

func (c *churn) remove(i int) *Filter {
	if err := c.e.Remove(c.ids[i]); err != nil {
		c.t.Fatalf("remove %d: %v", c.ids[i], err)
	}
	if err := c.e.Remove(c.ids[i]); err == nil {
		c.t.Fatalf("remove %d succeeded twice", c.ids[i])
	}
	f := c.filters[i]
	c.filters = append(c.filters[:i], c.filters[i+1:]...)
	c.ids = append(c.ids[:i], c.ids[i+1:]...)
	return f
}

// sameAtomSet reports whether two filters are the same conjunction (the
// trie's notion of a duplicate): equal atoms in any order.
func sameAtomSet(f, g *Filter) bool {
	if len(f.Atoms) != len(g.Atoms) {
		return false
	}
	used := make([]bool, len(g.Atoms))
next:
	for _, a := range f.Atoms {
		for j, b := range g.Atoms {
			if !used[j] && a.Offset == b.Offset && a.Size == b.Size && a.mask() == b.mask() && a.Value == b.Value {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

// probe checks both demux paths against the oracle on one packet, and
// DemuxLinear's cost against the reference interpreter over the test's
// filters in id order (which pins the stored atom order).
func (c *churn) probe(pkt []byte) {
	c.t.Helper()
	if c.e.Len() != len(c.filters) {
		c.t.Fatalf("Len() = %d, %d filters installed", c.e.Len(), len(c.filters))
	}
	wantID, wantOK := oracleDemux(c.filters, c.ids, pkt)
	if got, _, ok := c.e.Demux(pkt); ok != wantOK || ok && got != wantID {
		c.t.Fatalf("trie demux = %v,%v oracle = %v,%v (pkt %x)", got, ok, wantID, wantOK, pkt)
	}
	var wantCycles sim.Time
	for _, f := range c.filters { // ids ascend, so this is id order
		_, cyc := Interpret(f, pkt)
		wantCycles += cyc
	}
	got, cycles, ok := c.e.DemuxLinear(pkt)
	if ok != wantOK || ok && got != wantID || cycles != wantCycles {
		c.t.Fatalf("linear demux = %v,%v in %d cycles, oracle = %v,%v in %d (pkt %x)",
			got, ok, cycles, wantID, wantOK, wantCycles, pkt)
	}
}

// run interprets ops two bytes at a time — (opcode, argument) — and
// returns the engine for the caller to inspect.
func runChurn(t *testing.T, ops []byte) *Engine {
	c := &churn{t: t, e: NewEngine(), lastID: -1}
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0], ops[1]
		shape := int(op>>3) % 6
		switch op & 7 {
		case 0, 1, 2:
			c.insert(churnFilter(shape, arg))
		case 3:
			if len(c.ids) > 0 {
				c.remove(int(arg) % len(c.ids))
			}
		case 4: // remove and re-insert: free lists and table holes are reused
			if len(c.ids) > 0 {
				c.insert(c.remove(int(arg) % len(c.ids)))
			}
		case 5:
			c.e.Reorder()
		case 6: // an id that is not installed must be refused and harm nothing
			id, live := FilterID(arg), false
			for _, x := range c.ids {
				live = live || x == id
			}
			if !live && c.e.Remove(id) == nil {
				t.Fatalf("remove of uninstalled id %d succeeded", id)
			}
		}
		c.probe(churnPacket(arg, op))
	}
	nodes, branches, terminals := reachable(c.e, 0)
	cs := c.e.Census()
	if nodes+cs.FreeNodes != cs.Nodes || branches+cs.FreeBranches != cs.Branches {
		t.Fatalf("storage leaked: %d nodes and %d branches reachable, census %+v", nodes, branches, cs)
	}
	if terminals != len(c.ids) || cs.LiveIDs != len(c.ids) || cs.IDs != int(c.lastID)+1 {
		t.Fatalf("%d filters installed, last id %d: %d terminals reachable, census %+v",
			len(c.ids), c.lastID, terminals, cs)
	}
	return c.e
}

// reachable counts the nodes, branches and terminals of the subtrie at ni
// by walking it — independently of the engine's free lists.
func reachable(e *Engine, ni uint32) (nodes, branches, terminals int) {
	nodes = 1
	if e.nodes.at(ni).terminal != noTerminal {
		terminals = 1
	}
	e.eachBranch(ni, func(b *branch) {
		branches++
		kids := 0
		b.eachKid(func(_, kid uint32) {
			kids++
			n, br, tm := reachable(e, kid)
			nodes, branches, terminals = nodes+n, branches+br, terminals+tm
		})
		if kids != int(b.nkids) || kids == 0 {
			panic("dpf: branch child count out of step with its children")
		}
	})
	return nodes, branches, terminals
}

// churnSeeds are op sequences that each reach one storage transition;
// TestChurnSeeds checks that they do.
var churnSeeds = map[string][]byte{}

func init() {
	inserts := func(shape, n int) (ops []byte) {
		for v := 0; v < n; v++ {
			ops = append(ops, byte(shape<<3), byte(v))
		}
		return ops
	}
	removes := func(n int) (ops []byte) {
		for i := 0; i < n; i++ {
			ops = append(ops, 3, byte(7*i))
		}
		return ops
	}
	churnSeeds["inline"] = inserts(0, 2)
	churnSeeds["table"] = inserts(0, 3)
	churnSeeds["grow"] = inserts(0, 200)
	churnSeeds["shift"] = append(inserts(0, 48), removes(40)...)
	churnSeeds["reuse"] = append(append(inserts(3, 40), removes(40)...), inserts(0, 40)...)
	churnSeeds["reinsert"] = append(inserts(0, 30), 4, 3, 4, 11, 5, 0, 4, 29)
	churnSeeds["duplicates"] = append(append(inserts(1, 5), inserts(2, 5)...), 5<<3, 0, 5<<3, 1)
	churnSeeds["mixed"] = append(append(append(inserts(0, 20), inserts(1, 20)...), inserts(4, 20)...),
		5, 0, 3, 9, 5<<3, 0, 6, 200, 0xc7, 3, 0x47, 4)
}

func TestChurnSeeds(t *testing.T) {
	census := map[string]Census{}
	for name, ops := range churnSeeds {
		census[name] = runChurn(t, ops).Census()
	}
	if c := census["inline"]; c.Tables != 0 {
		t.Errorf("inline: two children already took a table: %+v", c)
	}
	if c := census["table"]; c.Tables != 1 || c.TableKids != 3 {
		t.Errorf("table: third child did not move the branch to a table: %+v", c)
	}
	if c := census["grow"]; c.TableSlots < 256 || c.TableKids != 200 {
		t.Errorf("grow: 200 children in %d slots: %+v", c.TableSlots, c)
	}
	if c := census["shift"]; c.TableKids != 8 || c.FreeNodes != 40 {
		t.Errorf("shift: 40 of 48 removed from a table: %+v", c)
	}
	// 40 five-level filters, all removed, then 40 three-level ones: every
	// node and branch of the second wave comes off the free lists.
	if c := census["reuse"]; c.Nodes != 1+2+3*40 || c.FreeNodes != 2*40 || c.Branches != 3+2*40 {
		t.Errorf("reuse: second wave did not reuse freed storage: %+v", c)
	}
	if c := census["reinsert"]; c.IDs != 33 || c.LiveIDs != 30 || c.FreeNodes != 0 || c.FreeAtoms != 0 {
		t.Errorf("reinsert: %+v", c)
	}
	if c := census["duplicates"]; c.LiveIDs != 6 {
		t.Errorf("duplicates: %d filters live, want 5 + the empty filter: %+v", c.LiveIDs, c)
	}
}

// FuzzDPFChurn is the differential fuzzer for the engine's storage: the
// input drives Insert / Remove / re-Insert / Reorder / bad-id Remove over
// a value pool wide enough to take a branch from inline children through
// table growth and back down, and after every operation Demux,
// DemuxLinear (decision and cost) and Len must agree with an oracle that
// reads only the test's own record of what is installed. Ids must ascend
// and never repeat; at the end every node and branch ever issued is
// either reachable or on a free list.
func FuzzDPFChurn(f *testing.F) {
	for _, ops := range churnSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runChurn(t, ops) })
}

// mallocsAndObjects reads the allocator's counters after a collection.
func mallocsAndObjects() (mallocs, objects uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.HeapObjects
}

// TestInsertHeapShape pins what the flat trie is for: installing filters
// allocates slab pages and table doublings, not objects per filter.
func TestInsertHeapShape(t *testing.T) {
	const n = 100_000
	e := NewEngine()
	f := churnFilter(0, 0)
	src := &f.Atoms[2]
	m0, o0 := mallocsAndObjects()
	for i := 0; i < n; i++ {
		src.Value = uint32(i)
		if _, err := e.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	m1, o1 := mallocsAndObjects()
	if per := float64(m1-m0) / n; per >= 0.05 {
		t.Errorf("%.3f mallocs per insert, want < 0.05", per)
	}
	if added := int64(o1) - int64(o0); added >= 512 {
		t.Errorf("%d live heap objects for %d filters, want < 512", added, n)
	}
	if e.Len() != n || e.Depth() != 3 {
		t.Fatalf("Len %d Depth %d", e.Len(), e.Depth())
	}
}

// TestChurnAllocatesNothing: in a warm engine, removing a filter and
// installing it again reuses the node, the table slot and the atom run.
func TestChurnAllocatesNothing(t *testing.T) {
	e := NewEngine()
	ids := make([]FilterID, 1000)
	for i := range ids {
		ids[i], _ = e.Insert(churnFilter(3, byte(i)).Eq32(40, uint32(i)))
	}
	f := churnFilter(3, 7).Eq32(40, 7)
	id := ids[7]
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
		var err error
		if id, err = e.Insert(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Remove + Insert: %v allocs per run, want 0", allocs)
	}
}

// TestRemoveReturnsStorage: what Remove prunes goes on the free lists and
// is what the next Insert uses.
func TestRemoveReturnsStorage(t *testing.T) {
	const n, gone = 65536, 2048
	e := NewEngine()
	f := churnFilter(0, 0)
	src := &f.Atoms[2]
	for i := 0; i < n; i++ {
		src.Value = uint32(i)
		if _, err := e.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	full := e.Census()
	for i := 0; i < gone; i++ {
		if err := e.Remove(FilterID(i * (n / gone))); err != nil {
			t.Fatal(err)
		}
	}
	nodes, branches, terminals := reachable(e, 0)
	c := e.Census()
	if c.FreeNodes != gone || nodes+c.FreeNodes != c.Nodes || branches+c.FreeBranches != c.Branches ||
		terminals != n-gone || c.FreeAtoms != 3*gone {
		t.Fatalf("after removing %d of %d: %d nodes, %d branches, %d terminals reachable; census %+v",
			gone, n, nodes, branches, terminals, c)
	}
	for i := 0; i < gone; i++ {
		src.Value = uint32(i * (n / gone))
		if _, err := e.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	c = e.Census()
	if c.Nodes != full.Nodes || c.Branches != full.Branches || c.Atoms != full.Atoms ||
		c.FreeNodes != 0 || c.FreeAtoms != 0 || c.IDs != n+gone {
		t.Fatalf("re-inserting issued new storage: before %+v, after %+v", full, c)
	}
}

// TestInsertRejectsUnstorableAtoms: the stored form narrows offsets and
// sizes, so what does not fit is refused before the trie is touched.
func TestInsertRejectsUnstorableAtoms(t *testing.T) {
	e := NewEngine()
	for _, a := range []Atom{{Offset: -1, Size: 2}, {Offset: 4, Size: 3}, {Offset: 4, Size: 0}} {
		if _, err := e.Insert(NewFilter(Atom{Offset: 12, Size: 2, Value: 0x0800}, a)); err == nil {
			t.Errorf("atom %+v accepted", a)
		}
	}
	if c := e.Census(); e.Len() != 0 || c.Nodes != 1 || c.Branches != 0 {
		t.Errorf("rejected filters left storage behind: %+v", c)
	}
}
