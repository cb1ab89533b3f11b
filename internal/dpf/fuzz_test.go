package dpf

import (
	"math/rand"
	"testing"
)

// FuzzDPFDemux is the differential fuzzer for the trie: an arbitrary
// filter set (derived deterministically from seed) and an arbitrary packet
// must produce the same dispatch decision from the one-pass trie walk as
// from a naive scan of every Filter.Match — the reference semantics. The
// fuzzer owns the packet bytes outright, so it explores truncated fields,
// packets shorter than every atom, and values outside the generators'
// pools.
func FuzzDPFDemux(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(1), mkUDPPacket(0x0800, 17, 1000))
	f.Add(int64(7), mkTCPPacket(0x0a000002, 0x0a000001, 8000, 7000))
	f.Add(int64(42), []byte{0x08, 0x00, 0x45})
	f.Fuzz(func(t *testing.T, seed int64, pkt []byte) {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var filters []*Filter
		var ids []FilterID
		for i := 0; i < 1+rng.Intn(12); i++ {
			flt := randomFilter(rng)
			id, err := e.Insert(flt)
			if err != nil {
				continue // duplicate draw
			}
			filters, ids = append(filters, flt), append(ids, id)
		}
		wantID, wantOK := oracleDemux(filters, ids, pkt)
		gotT, _, okT := e.Demux(pkt)
		if okT != wantOK || okT && gotT != wantID {
			t.Fatalf("trie demux = %v,%v, linear oracle = %v,%v (seed %d, pkt %x)",
				gotT, okT, wantID, wantOK, seed, pkt)
		}
		gotL, _, okL := e.DemuxLinear(pkt)
		if okL != wantOK || okL && gotL != wantID {
			t.Fatalf("DemuxLinear = %v,%v, oracle = %v,%v (seed %d, pkt %x)",
				gotL, okL, wantID, wantOK, seed, pkt)
		}
	})
}
