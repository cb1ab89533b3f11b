package netdev

import (
	"sync"
	"testing"

	"ashs/internal/mach"
	"ashs/internal/sim"
)

func TestBufPoolLeaseReleaseRecycles(t *testing.T) {
	p := NewBufPool(64)
	a := p.Lease()
	if p.InUse() != 1 || !a.leased {
		t.Fatalf("after lease: inUse=%d leased=%v", p.InUse(), a.leased)
	}
	a.SetData([]byte{1, 2, 3})
	a.Src, a.Dst, a.VC, a.FCS = 4, 5, 6, 7
	a.Release()
	if p.InUse() != 0 {
		t.Fatalf("after release: inUse=%d", p.InUse())
	}
	b := p.Lease()
	if b != a {
		t.Fatal("pool did not recycle the released buffer")
	}
	if b.Len() != 0 || b.Src != 0 || b.Dst != 0 || b.VC != 0 || b.FCS != 0 {
		t.Fatalf("recycled buffer not scrubbed: len=%d src=%d dst=%d vc=%d fcs=%d",
			b.Len(), b.Src, b.Dst, b.VC, b.FCS)
	}
	if p.Grown != 1 || p.Leases != 2 || p.Releases != 1 {
		t.Fatalf("accounting: grown=%d leases=%d releases=%d", p.Grown, p.Leases, p.Releases)
	}
}

func TestBufDoubleReleasePanics(t *testing.T) {
	p := NewBufPool(16)
	b := p.Lease()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

// TestBufRefcountHandoff pins single ownership: while one owner holds a
// lease the pool hands out other buffers, and the owner's one Release
// gives it back.
func TestBufRefcountHandoff(t *testing.T) {
	p := NewBufPool(16)
	held := p.Lease()
	other := p.Lease()
	if other == held {
		t.Fatal("pool handed out a buffer that is still leased")
	}
	other.Release()
	if p.InUse() != 1 {
		t.Fatalf("inUse=%d with one lease held", p.InUse())
	}
	held.Release()
	if p.InUse() != 0 {
		t.Fatalf("inUse=%d after final release", p.InUse())
	}
}

func TestBufGrowOversize(t *testing.T) {
	p := NewBufPool(8)
	b := p.Lease()
	big := make([]byte, 32)
	big[31] = 9
	b.SetData(big)
	if b.Len() != 32 || b.Bytes()[31] != 9 {
		t.Fatalf("oversize SetData: len=%d", b.Len())
	}
	b.Release()
}

// TestRefcountHandoffRace runs independent worlds on parallel goroutines,
// each delivering frames to a receiver that borrows them and copies what
// it keeps, so `go test -race` can prove the lease discipline never shares
// a pool across engines, and the pool drains once the switch releases.
func TestRefcountHandoffRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine()
			sw := NewSwitch(eng, mach.DS5000_240(), AN2Config())
			a, b := sw.NewPort(), sw.NewPort()
			var kept []byte
			b.SetReceiver(func(pkt *PacketBuf) {
				kept = append(kept, pkt.Bytes()...)
			})
			for i := 0; i < 100; i++ {
				pkt := sw.LeaseData([]byte{byte(i)})
				pkt.Dst = b.Addr()
				_ = a.Transmit(pkt)
			}
			eng.Run()
			if sw.Pool.InUse() != 0 {
				panic("pool leak in race worker")
			}
			if len(kept) != 100 {
				panic("receiver missed frames")
			}
			for i, v := range kept {
				if v != byte(i) {
					panic("receiver copied other bytes than were sent")
				}
			}
		}()
	}
	wg.Wait()
}
