package netdev

import (
	"testing"

	"ashs/internal/mach"
	"ashs/internal/sim"
)

func newAN2(t *testing.T) (*sim.Engine, *Switch) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewSwitch(eng, mach.DS5000_240(), AN2Config())
}

// lease builds an owned frame ready for Transmit.
func lease(s *Switch, dst, vc int, data []byte) *PacketBuf {
	b := s.LeaseData(data)
	b.Dst, b.VC = dst, vc
	return b
}

func TestAN2HardwareRoundTrip(t *testing.T) {
	// The calibration anchor: a 4-byte hardware ping-pong costs ~96 us.
	eng, sw := newAN2(t)
	a, b := sw.NewPort(), sw.NewPort()

	var done sim.Time
	b.SetReceiver(func(pkt *PacketBuf) {
		if err := b.Transmit(lease(sw, a.Addr(), 0, pkt.Bytes())); err != nil {
			t.Error(err)
		}
	})
	a.SetReceiver(func(pkt *PacketBuf) { done = eng.Now() })
	if err := a.Transmit(lease(sw, b.Addr(), 0, make([]byte, 4))); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	us := sw.Prof.Us(done)
	if us < 90 || us > 102 {
		t.Fatalf("AN2 hw round trip = %.1f us, want ~96 (paper Section IV-C)", us)
	}
	if sw.Pool.InUse() != 0 {
		t.Fatalf("pool leak: %d buffers in use after drain", sw.Pool.InUse())
	}
}

func TestAN2TrainApproachesLinkBandwidth(t *testing.T) {
	// Pipelining: a long train of 4-KB packets should arrive at close to
	// the 16.8 MB/s payload bandwidth despite the 48 us fixed latency.
	eng, sw := newAN2(t)
	a, b := sw.NewPort(), sw.NewPort()
	const pkts, size = 64, 4096
	var lastArrival sim.Time
	got := 0
	b.SetReceiver(func(pkt *PacketBuf) { got++; lastArrival = eng.Now() })
	var firstDeparture sim.Time = -1
	for i := 0; i < pkts; i++ {
		if firstDeparture < 0 {
			firstDeparture = eng.Now()
		}
		if err := a.Transmit(lease(sw, b.Addr(), 0, make([]byte, size))); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got != pkts {
		t.Fatalf("delivered %d/%d", got, pkts)
	}
	mbps := sw.Prof.MBps(pkts*size, lastArrival-firstDeparture)
	if mbps < 14.5 || mbps > 16.9 {
		t.Fatalf("train throughput = %.2f MB/s, want near 16.8 (Fig. 3 ceiling)", mbps)
	}
}

func TestEthernetSlowerAndMinFrame(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, mach.DS5000_240(), EthernetConfig())
	a, b := sw.NewPort(), sw.NewPort()
	var at sim.Time
	b.SetReceiver(func(pkt *PacketBuf) { at = eng.Now() })
	if err := a.Transmit(lease(sw, b.Addr(), 0, make([]byte, 4))); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	us := sw.Prof.Us(at)
	// 64-byte min frame at 1.25 B/us = 51.2 us + 1 per-packet + 60 fixed
	// = ~112 us one way.
	if us < 105 || us > 120 {
		t.Fatalf("Ethernet one-way 4B = %.1f us, want ~112", us)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, mach.DS5000_240(), EthernetConfig())
	a, b := sw.NewPort(), sw.NewPort()
	if err := a.Transmit(lease(sw, b.Addr(), 0, make([]byte, 4000))); err == nil {
		t.Fatal("oversize Ethernet frame accepted")
	}
	if sw.Refused != 1 || sw.Sent != 0 {
		t.Fatalf("Refused = %d, Sent = %d, want 1 and 0", sw.Refused, sw.Sent)
	}
	if sw.Pool.InUse() != 0 {
		t.Fatal("Transmit error path leaked the lease")
	}
	_ = eng
}

func TestBadDestinationRejected(t *testing.T) {
	eng, sw := newAN2(t)
	a := sw.NewPort()
	_ = eng
	if err := a.Transmit(lease(sw, 7, 0, []byte{1})); err == nil {
		t.Fatal("transmit to nonexistent port accepted")
	}
	if sw.Refused != 1 || sw.Sent != 0 {
		t.Fatalf("Refused = %d, Sent = %d, want 1 and 0", sw.Refused, sw.Sent)
	}
	if sw.Pool.InUse() != 0 {
		t.Fatal("Transmit error path leaked the lease")
	}
}

func TestInjectDrop(t *testing.T) {
	eng, sw := newAN2(t)
	a, b := sw.NewPort(), sw.NewPort()
	drops := 0
	sw.Inject = func(p *PacketBuf) bool {
		drops++
		return drops > 1 // drop the first packet only
	}
	var got []byte
	b.SetReceiver(func(pkt *PacketBuf) { got = append(got, pkt.Bytes()[0]) })
	_ = a.Transmit(lease(sw, b.Addr(), 0, []byte{1}))
	_ = a.Transmit(lease(sw, b.Addr(), 0, []byte{2}))
	eng.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("delivered %v, want only packet 2", got)
	}
	if sw.Dropped != 1 || sw.Delivered != 1 {
		t.Fatalf("stats: dropped=%d delivered=%d", sw.Dropped, sw.Delivered)
	}
	if sw.Pool.InUse() != 0 {
		t.Fatalf("pool leak after injected drop: %d in use", sw.Pool.InUse())
	}
}

func TestVCCarried(t *testing.T) {
	eng, sw := newAN2(t)
	a, b := sw.NewPort(), sw.NewPort()
	var vc int
	b.SetReceiver(func(pkt *PacketBuf) { vc = pkt.VC })
	_ = a.Transmit(lease(sw, b.Addr(), 42, []byte{0}))
	eng.Run()
	if vc != 42 {
		t.Fatalf("VC = %d, want 42", vc)
	}
}

func TestSrcFilledIn(t *testing.T) {
	eng, sw := newAN2(t)
	a, b := sw.NewPort(), sw.NewPort()
	src := -1
	b.SetReceiver(func(pkt *PacketBuf) { src = pkt.Src })
	_ = a.Transmit(lease(sw, b.Addr(), 0, []byte{0}))
	eng.Run()
	if src != a.Addr() {
		t.Fatalf("Src = %d, want %d", src, a.Addr())
	}
}

func TestOrderingPreserved(t *testing.T) {
	eng, sw := newAN2(t)
	a, b := sw.NewPort(), sw.NewPort()
	var order []byte
	b.SetReceiver(func(pkt *PacketBuf) { order = append(order, pkt.Bytes()[0]) })
	for i := 0; i < 10; i++ {
		_ = a.Transmit(lease(sw, b.Addr(), 0, []byte{byte(i)}))
	}
	eng.Run()
	for i := range order {
		if order[i] != byte(i) {
			t.Fatalf("out of order delivery: %v", order)
		}
	}
}

func TestSteadyStateWireZeroAlloc(t *testing.T) {
	// The tentpole claim at the wire layer: a warmed-up ping-pong loop
	// allocates nothing per round trip.
	eng, sw := newAN2(t)
	a, b := sw.NewPort(), sw.NewPort()
	payload := []byte{1, 2, 3, 4}
	b.SetReceiver(func(pkt *PacketBuf) {
		rep := sw.LeaseData(pkt.Bytes())
		rep.Dst = a.Addr()
		_ = b.Transmit(rep)
	})
	rounds := 0
	a.SetReceiver(func(pkt *PacketBuf) {
		rounds++
		req := sw.LeaseData(pkt.Bytes())
		req.Dst = b.Addr()
		_ = a.Transmit(req)
	})
	first := sw.LeaseData(payload)
	first.Dst = b.Addr()
	_ = a.Transmit(first)
	eng.RunFor(sw.Prof.Cycles(10_000)) // warm pools and event queue
	allocs := testing.AllocsPerRun(50, func() {
		eng.RunFor(sw.Prof.Cycles(1000))
	})
	if allocs != 0 {
		t.Fatalf("steady-state wire path allocates %.1f/op, want 0", allocs)
	}
	if rounds < 10 {
		t.Fatalf("ping-pong made no progress: %d rounds", rounds)
	}
}
