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

// TestEveryDeliveredFrameHasAFate checks the switch's side of the fate
// ledger: a frame reaching no receiver is Unreceived, and a broadcast
// counts once per receiver it reaches.
func TestEveryDeliveredFrameHasAFate(t *testing.T) {
	eng, sw := newAN2(t)
	a, b, _, d := sw.NewPort(), sw.NewPort(), sw.NewPort(), sw.NewPort()
	got := 0
	b.SetReceiver(func(*PacketBuf) { got++ })
	d.SetReceiver(func(*PacketBuf) { got++ })
	_ = a.Transmit(lease(sw, 2, 0, []byte{1}))         // port 2 has no receiver
	_ = a.Transmit(lease(sw, Broadcast, 0, []byte{2})) // reaches b and d
	_ = b.Transmit(lease(sw, Broadcast, 0, []byte{3})) // reaches d
	_ = d.Transmit(lease(sw, b.Addr(), 0, []byte{4}))
	eng.Run()
	if sw.Delivered != 4 || sw.Unreceived != 1 || sw.Fanout != 1 || sw.Received() != 4 || uint64(got) != sw.Received() {
		t.Fatalf("delivered %d, unreceived %d, fanout %d, received %d; the receivers took %d",
			sw.Delivered, sw.Unreceived, sw.Fanout, sw.Received(), got)
	}
	c := sw.NewPort()
	_ = c.Transmit(lease(sw, Broadcast, 0, []byte{5})) // a has no receiver either
	a.SetReceiver(nil)
	b.SetReceiver(nil)
	d.SetReceiver(nil)
	eng.Run()
	if sw.Unreceived != 2 || sw.Received() != 4 {
		t.Fatalf("a broadcast no port took: unreceived %d, received %d", sw.Unreceived, sw.Received())
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

// TestBroadcastFanOut: a broadcast frame reaches every port but the
// sender's exactly once, and each receiver sees its own address in Dst, on
// the wire and when an injector redelivers; the fan-out leaves Dst
// Broadcast again for whoever holds the frame next.
func TestBroadcastFanOut(t *testing.T) {
	const ports, sender = 5, 2
	eng := sim.NewEngine()
	sw := NewSwitch(eng, mach.DS5000_240(), EthernetConfig())
	var got [ports]int
	for i := 0; i < ports; i++ {
		p := sw.NewPort()
		p.SetReceiver(func(pkt *PacketBuf) {
			got[p.Addr()]++
			if pkt.Dst != p.Addr() || pkt.Src != sender {
				t.Errorf("port %d saw Dst %d, Src %d; want %d, %d", p.Addr(), pkt.Dst, pkt.Src, p.Addr(), sender)
			}
		})
	}
	check := func(path string) {
		t.Helper()
		for i, n := range got {
			want := 1
			if i == sender {
				want = 0
			}
			if n != want {
				t.Errorf("%s: port %d received %d copies, want %d", path, i, n, want)
			}
		}
		got = [ports]int{}
	}

	if err := sw.ports.At(sender).Transmit(lease(sw, Broadcast, 0, []byte{1})); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	check("wire")

	pkt := lease(sw, Broadcast, 0, []byte{2})
	pkt.Src = sender
	sw.Redeliver(pkt)
	check("redeliver")

	// Both entry points release the frame straight after deliver; what
	// deliver leaves behind is what a holder of the frame would see.
	pkt = lease(sw, Broadcast, 0, []byte{3})
	pkt.Src = sender
	sw.deliver(pkt)
	check("deliver")
	if pkt.Dst != Broadcast {
		t.Errorf("after the fan-out Dst = %d, want Broadcast", pkt.Dst)
	}
	pkt.Release()
	if sw.Pool.InUse() != 0 {
		t.Fatalf("pool leak: %d buffers in use", sw.Pool.InUse())
	}
}

// TestFrameCheckOnlyWhereAnInjectorIs: a switch with no injector seals
// nothing — no CRC is computed, and every frame is intact — while one with
// an injector seals every frame before the injector sees it, so damage the
// injector leaves unrefreshed shows and a refreshed one (a sneak) does not.
func TestFrameCheckOnlyWhereAnInjectorIs(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	flipped := append([]byte(nil), data...)
	flipped[3] ^= 1
	for _, c := range []struct {
		name   string
		inject func(p *PacketBuf) bool
		fcs    uint32
		intact bool
	}{
		{"no injector", nil, 0, true},
		{"injector", func(*PacketBuf) bool { return true }, FrameCheck(data), true},
		{"corrupting injector", func(p *PacketBuf) bool { p.Bytes()[3] ^= 1; return true }, FrameCheck(data), false},
		{"sneaking injector", func(p *PacketBuf) bool { p.Bytes()[3] ^= 1; p.Seal(); return true }, FrameCheck(flipped), true},
	} {
		eng, sw := newAN2(t)
		a, b := sw.NewPort(), sw.NewPort()
		sw.Inject = c.inject
		got := 0
		b.SetReceiver(func(pkt *PacketBuf) {
			got++
			if pkt.FCS != c.fcs || pkt.Intact() != c.intact {
				t.Errorf("%s: FCS %08x, intact %v; want %08x, %v", c.name, pkt.FCS, pkt.Intact(), c.fcs, c.intact)
			}
		})
		if err := a.Transmit(lease(sw, b.Addr(), 0, data)); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if got != 1 {
			t.Errorf("%s: %d frames delivered", c.name, got)
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

// TestNewPortsShareAReceiver: NewPorts attaches its ports after those
// already there, at consecutive addresses, each delivering to the one
// receiver with Dst naming the port.
func TestNewPortsShareAReceiver(t *testing.T) {
	eng, sw := newAN2(t)
	src := sw.NewPort()
	first := sw.NewPorts(3, func(pkt *PacketBuf) {
		if pkt.Bytes()[0] != byte(pkt.Dst) {
			t.Errorf("frame for port %d delivered as Dst %d", pkt.Bytes()[0], pkt.Dst)
		}
	})
	if first != 1 || sw.NumPorts() != 4 {
		t.Fatalf("first port %d of %d, want 1 of 4", first, sw.NumPorts())
	}
	for a := first; a < first+3; a++ {
		if p := sw.Port(a); p.Addr() != a {
			t.Fatalf("Port(%d) has address %d", a, p.Addr())
		}
		if err := src.Transmit(lease(sw, a, 0, []byte{byte(a)})); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if sw.Received() != 3 {
		t.Fatalf("%d frames received, want 3", sw.Received())
	}
}
