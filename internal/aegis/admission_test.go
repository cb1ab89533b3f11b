package aegis

import (
	"testing"

	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// TestRingHighWaterShed: with a high watermark set, the demultiplexor
// sheds at demux once the ring is full — per-binding Shed and aggregate
// Rx.Shed count the refusals, no pool buffer is consumed, and the
// load-induced Rx.NoBuffer counter stays untouched.
func TestRingHighWaterShed(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := NewKernel("tx", eng, prof)
	k2 := NewKernel("rx", eng, prof)
	e1, e2 := NewEthernet(k1, sw), NewEthernet(k2, sw)
	b, err := e2.BindFilter(nil, dpfFilter(0x55))
	if err != nil {
		t.Fatal(err)
	}
	const highWater = 4
	const frames = 20
	b.Ring.HighWater = highWater

	// Space arrivals out so each ring push settles before the next
	// admission decision (the watermark reads the ring, not the in-flight
	// scheduled pushes).
	for i := 0; i < frames; i++ {
		i := i
		eng.Schedule(sim.Time(i)*prof.Cycles(200), func() {
			_ = ethTx(e1, e2.Addr(), []byte{0x55, byte(i)})
		})
	}
	eng.Run()

	if b.Ring.Len() != highWater {
		t.Fatalf("ring depth = %d, want %d", b.Ring.Len(), highWater)
	}
	if b.Shed != frames-highWater {
		t.Fatalf("binding shed = %d, want %d", b.Shed, frames-highWater)
	}
	if e2.Rx.Shed != b.Shed {
		t.Fatalf("Rx.Shed = %d, want %d", e2.Rx.Shed, b.Shed)
	}
	if e2.Rx.NoBuffer != 0 {
		t.Fatalf("shed frames counted as Rx.NoBuffer (%d)", e2.Rx.NoBuffer)
	}
	// Shed frames must not leak pool buffers: the entries queued plus the
	// free list must account for the whole pool.
	if got := e2.pool.count + b.Ring.Len(); got != EthRxBuffers {
		t.Fatalf("pool accounting: free+queued = %d, want %d", got, EthRxBuffers)
	}
}

// TestInjectedVsLoadDropSplit: fault-injected ring/pool drops land only
// on the Injected* counters; genuine pool exhaustion lands only on
// NoBuffer, so overload analysis can tell saturation from chaos.
func TestInjectedVsLoadDropSplit(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := NewKernel("tx", eng, prof)
	k2 := NewKernel("rx", eng, prof)
	e1, e2 := NewEthernet(k1, sw), NewEthernet(k2, sw)
	if _, err := e2.BindFilter(nil, dpfFilter(0x55)); err != nil {
		t.Fatal(err)
	}

	// Inject a ring drop on the first frame and a pool drop on the
	// second; everything after fails only by genuine exhaustion.
	seen := 0
	e2.InjectFault = func(pkt *netdev.PacketBuf) DeviceFault {
		seen++
		switch seen {
		case 1:
			return DeviceFault{DropRing: true}
		case 2:
			return DeviceFault{DropPool: true}
		}
		return DeviceFault{}
	}

	const extra = 5
	total := EthRxBuffers + 2 + extra
	for i := 0; i < total; i++ {
		_ = ethTx(e1, e2.Addr(), []byte{0x55, byte(i)})
	}
	eng.Run()

	want := RxStats{InjectedRing: 1, InjectedPool: 1, NoBuffer: extra, Delivered: EthRxBuffers}
	if e2.Rx != want {
		t.Fatalf("Rx = %+v, want %+v", e2.Rx, want)
	}
}
