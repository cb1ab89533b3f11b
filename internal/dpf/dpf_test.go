package dpf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mkUDPPacket builds a fake Ethernet+IP+UDP header prefix good enough for
// filter tests: eth type at 12, ip proto at 23, udp dst port at 36.
func mkUDPPacket(ethType uint16, proto byte, dstPort uint16) []byte {
	pkt := make([]byte, 64)
	pkt[12] = byte(ethType >> 8)
	pkt[13] = byte(ethType)
	pkt[23] = proto
	pkt[36] = byte(dstPort >> 8)
	pkt[37] = byte(dstPort)
	return pkt
}

func udpPortFilter(port uint16) *Filter {
	return NewFilter().
		Eq16(12, 0x0800). // IP
		Eq8(23, 17).      // UDP
		Eq16(36, port)    // destination port
}

func TestFilterMatch(t *testing.T) {
	f := udpPortFilter(53)
	if !f.Match(mkUDPPacket(0x0800, 17, 53)) {
		t.Fatal("filter rejected matching packet")
	}
	if f.Match(mkUDPPacket(0x0800, 17, 54)) {
		t.Fatal("filter accepted wrong port")
	}
	if f.Match(mkUDPPacket(0x0800, 6, 53)) {
		t.Fatal("filter accepted wrong protocol")
	}
	if f.Match(mkUDPPacket(0x0806, 17, 53)) {
		t.Fatal("filter accepted wrong ethertype")
	}
}

func TestFilterShortPacket(t *testing.T) {
	f := udpPortFilter(53)
	if f.Match([]byte{0x08, 0x00}) {
		t.Fatal("filter accepted truncated packet")
	}
	if f.Match(nil) {
		t.Fatal("filter accepted empty packet")
	}
}

func TestMaskedAtom(t *testing.T) {
	f := NewFilter().Masked16(0, 0xf000, 0x4000) // IP version nibble = 4
	pkt := []byte{0x45, 0x00}
	if !f.Match(pkt) {
		t.Fatal("masked match failed")
	}
	if f.Match([]byte{0x65, 0x00}) {
		t.Fatal("masked match accepted version 6")
	}
}

// TestInterpretAgreesWithMatch: the interpreted baseline accepts exactly
// the packets the reference Match accepts, over random filters and packets
// of which half are forced to match wherever they are long enough.
func TestInterpretAgreesWithMatch(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFilter()
		for i := 0; i < 1+rng.Intn(4); i++ {
			switch rng.Intn(3) {
			case 0:
				f.Eq8(rng.Intn(60), uint8(rng.Intn(256)))
			case 1:
				f.Eq16(rng.Intn(60), uint16(rng.Intn(65536)))
			case 2:
				f.Eq32(rng.Intn(56), rng.Uint32())
			}
		}
		for trial := 0; trial < 20; trial++ {
			pkt := make([]byte, rng.Intn(70))
			rng.Read(pkt)
			// Half the time, force a match by writing the expected values.
			if trial%2 == 0 {
				for _, a := range f.Atoms {
					if a.Offset+a.Size <= len(pkt) {
						for i := 0; i < a.Size; i++ {
							pkt[a.Offset+i] = byte(a.Value >> (8 * (a.Size - 1 - i)))
						}
					}
				}
			}
			if got, _ := Interpret(f, pkt); got != f.Match(pkt) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineDemux(t *testing.T) {
	e := NewEngine()
	id53, err := e.Insert(udpPortFilter(53))
	if err != nil {
		t.Fatal(err)
	}
	id80, err := e.Insert(udpPortFilter(80))
	if err != nil {
		t.Fatal(err)
	}
	idTCP, err := e.Insert(NewFilter().Eq16(12, 0x0800).Eq8(23, 6))
	if err != nil {
		t.Fatal(err)
	}

	if got, _, ok := e.Demux(mkUDPPacket(0x0800, 17, 53)); !ok || got != id53 {
		t.Fatalf("demux(udp:53) = %v,%v want %v", got, ok, id53)
	}
	if got, _, ok := e.Demux(mkUDPPacket(0x0800, 17, 80)); !ok || got != id80 {
		t.Fatalf("demux(udp:80) = %v,%v want %v", got, ok, id80)
	}
	if got, _, ok := e.Demux(mkUDPPacket(0x0800, 6, 999)); !ok || got != idTCP {
		t.Fatalf("demux(tcp) = %v,%v want %v", got, ok, idTCP)
	}
	if _, _, ok := e.Demux(mkUDPPacket(0x0800, 17, 9999)); ok {
		t.Fatal("demux matched unclaimed port")
	}
	if _, _, ok := e.Demux(mkUDPPacket(0x0806, 0, 0)); ok {
		t.Fatal("demux matched unclaimed ethertype")
	}
}

func TestEngineMostSpecificWins(t *testing.T) {
	e := NewEngine()
	anyIP, err := e.Insert(NewFilter().Eq16(12, 0x0800))
	if err != nil {
		t.Fatal(err)
	}
	udp53, err := e.Insert(udpPortFilter(53))
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := e.Demux(mkUDPPacket(0x0800, 17, 53)); got != udp53 {
		t.Fatalf("demux returned %v, want most specific %v", got, udp53)
	}
	if got, _, _ := e.Demux(mkUDPPacket(0x0800, 6, 53)); got != anyIP {
		t.Fatalf("demux returned %v, want fallback %v", got, anyIP)
	}
}

func TestEngineRejectsDuplicates(t *testing.T) {
	e := NewEngine()
	if _, err := e.Insert(udpPortFilter(53)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(udpPortFilter(53)); err == nil {
		t.Fatal("duplicate filter accepted")
	}
}

func TestEngineRemove(t *testing.T) {
	e := NewEngine()
	id53, _ := e.Insert(udpPortFilter(53))
	id80, _ := e.Insert(udpPortFilter(80))
	if err := e.Remove(id53); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := e.Demux(mkUDPPacket(0x0800, 17, 53)); ok {
		t.Fatal("removed filter still matches")
	}
	if got, _, ok := e.Demux(mkUDPPacket(0x0800, 17, 80)); !ok || got != id80 {
		t.Fatal("sibling filter lost after removal")
	}
	if err := e.Remove(id53); err == nil {
		t.Fatal("double remove succeeded")
	}
	// Reinsert after removal must work (trie was pruned, not poisoned).
	if _, err := e.Insert(udpPortFilter(53)); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDemuxAgreesWithLinear(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ports := rng.Perm(100)[:8]
		for _, p := range ports {
			if _, err := e.Insert(udpPortFilter(uint16(1000 + p))); err != nil {
				return false
			}
		}
		for trial := 0; trial < 30; trial++ {
			port := uint16(1000 + rng.Intn(110))
			pkt := mkUDPPacket(0x0800, 17, port)
			gotT, _, okT := e.Demux(pkt)
			gotL, _, okL := e.DemuxLinear(pkt)
			if okT != okL {
				return false
			}
			if okT && gotT != gotL {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrieCostScalesSublinearly(t *testing.T) {
	// The point of DPF's trie merging: demux cost stays ~flat as filters
	// accumulate, while the linear/interpreted engine grows with count.
	costWith := func(n int) (trie, linear int64) {
		e := NewEngine()
		for i := 0; i < n; i++ {
			if _, err := e.Insert(udpPortFilter(uint16(1000 + i))); err != nil {
				t.Fatal(err)
			}
		}
		pkt := mkUDPPacket(0x0800, 17, uint16(1000+n-1)) // worst case for linear
		_, tc, ok := e.Demux(pkt)
		if !ok {
			t.Fatal("trie demux missed")
		}
		_, lc, ok := e.DemuxLinear(pkt)
		if !ok {
			t.Fatal("linear demux missed")
		}
		return int64(tc), int64(lc)
	}
	t4, l4 := costWith(4)
	t64, l64 := costWith(64)
	if t64 > t4*2 {
		t.Fatalf("trie cost grew from %d to %d across 4->64 filters", t4, t64)
	}
	if l64 < l4*8 {
		t.Fatalf("linear cost did not scale: %d -> %d", l4, l64)
	}
	if l64/t64 < 10 {
		t.Fatalf("DPF advantage at 64 filters = %dx, want >= 10x (order of magnitude)", l64/t64)
	}
}

func BenchmarkCompiledDemux64Filters(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		if _, err := e.Insert(udpPortFilter(uint16(1000 + i))); err != nil {
			b.Fatal(err)
		}
	}
	pkt := mkUDPPacket(0x0800, 17, 1063)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.Demux(pkt); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkLinearDemux64Filters(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		if _, err := e.Insert(udpPortFilter(uint16(1000 + i))); err != nil {
			b.Fatal(err)
		}
	}
	pkt := mkUDPPacket(0x0800, 17, 1063)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.DemuxLinear(pkt); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkInterpretedSingleFilter(b *testing.B) {
	f := udpPortFilter(53)
	pkt := mkUDPPacket(0x0800, 17, 53)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := Interpret(f, pkt); !ok {
			b.Fatal("miss")
		}
	}
}

// TestWorkCounts pins the engine's host-work units on tries small enough
// to count by hand: an install's lookups examine the inline slots up to
// the match (none on a branch it made), and a Demux walk steps once per
// branch it examines, pruned by Reorder or not.
func TestWorkCounts(t *testing.T) {
	e := NewEngine()
	for i, want := range []uint64{0, 3, 7} {
		if _, err := e.Insert(udpPortFilter(uint16(1000 + i))); err != nil {
			t.Fatal(err)
		}
		// Filter i finds the two shared levels at slot 1 and compares all
		// i port slots without a match.
		if got := e.Work().InsertProbes; got != want {
			t.Fatalf("after %d inserts: %d insert probes, want %d", i+1, got, want)
		}
	}
	if e.Work().WalkSteps != 0 {
		t.Fatalf("inserts counted %d walk steps", e.Work().WalkSteps)
	}
	// Twelve one-atom siblings at the root beside the port chain: a walk
	// to the chain's end examines all 13 root branches and one branch at
	// each of the two levels below.
	for i := 0; i < 12; i++ {
		if _, err := e.Insert(NewFilter().Eq8(40+i, 7)); err != nil {
			t.Fatal(err)
		}
	}
	pkt := mkUDPPacket(0x0800, 17, 1001)
	demux := func() (uint64, int64) {
		before := e.Work().WalkSteps
		_, cyc, ok := e.Demux(pkt)
		if !ok {
			t.Fatal("demux missed")
		}
		return e.Work().WalkSteps - before, int64(cyc)
	}
	steps, cyc := demux()
	if steps != 15 {
		t.Fatalf("walk examined %d branches, want 15", steps)
	}
	// After Reorder the chain goes first and the twelve siblings are
	// pruned: cheaper, but the same branches examined.
	e.Reorder()
	steps, prunedCyc := demux()
	if steps != 15 || prunedCyc >= cyc {
		t.Fatalf("reordered walk: %d steps in %d cycles, want 15 steps in fewer than %d", steps, prunedCyc, cyc)
	}
	// Each sibling made its own branch, so looked nothing up.
	if got := e.Work().InsertProbes; got != 7 {
		t.Fatalf("%d insert probes after the siblings, want 7", got)
	}
}
