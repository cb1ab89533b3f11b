package udp

import (
	"runtime"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// world is a two-host AN2 testbed with IP stacks.
type world struct {
	eng    *sim.Engine
	k1, k2 *aegis.Kernel
	a1, a2 *aegis.AN2If
	ip1    ip.Addr
	ip2    ip.Addr
}

func newWorld() *world {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("h1", eng, prof)
	k2 := aegis.NewKernel("h2", eng, prof)
	w := &world{eng: eng, k1: k1, k2: k2,
		a1: aegis.NewAN2(k1, sw), a2: aegis.NewAN2(k2, sw)}
	w.ip1 = ip.HostAddr(w.a1.Addr())
	w.ip2 = ip.HostAddr(w.a2.Addr())
	return w
}

// stackFor builds an IP stack over a VC for process p.
func (w *world) stackFor(p *aegis.Process, iface *aegis.AN2If, vc int, local ip.Addr) *ip.Stack {
	ep, err := link.BindAN2(iface, p, vc, 16, iface.MaxFrame())
	if err != nil {
		panic(err)
	}
	res := ip.StaticResolver{
		w.ip1: {Port: w.a1.Addr(), VC: vc},
		w.ip2: {Port: w.a2.Addr(), VC: vc},
	}
	return ip.NewStack(ep, local, res)
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{SrcPort: 1234, DstPort: 53, Length: 100, Checksum: 0xbeef}
	b := h.Marshal(nil)
	if len(b) != HeaderLen {
		t.Fatalf("marshal length %d", len(b))
	}
	got, err := Parse(b)
	if err != nil || got != h {
		t.Fatalf("Parse = %+v, %v", got, err)
	}
	if _, err := Parse(b[:6]); err == nil {
		t.Fatal("short parse accepted")
	}
}

// runPingPong exercises one UDP round trip with the given options and
// payload, returning the payload the client got back.
func runPingPong(t *testing.T, opts Options, payload []byte) []byte {
	t.Helper()
	w := newWorld()
	var got []byte

	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 5, w.ip2)
		sock := NewSocket(st, 53, opts)
		m, err := sock.Recv(true)
		if err != nil {
			t.Error(err)
			return
		}
		data := append([]byte(nil), m.Bytes(w.k2)...)
		sock.Release(m)
		if err := sock.SendBytes(m.From, m.FromPort, data); err != nil {
			t.Error(err)
		}
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 5, w.ip1)
		sock := NewSocket(st, 1234, opts)
		if err := sock.SendBytes(w.ip2, 53, payload); err != nil {
			t.Error(err)
			return
		}
		m, err := sock.Recv(true)
		if err != nil {
			t.Error(err)
			return
		}
		got = append([]byte(nil), m.Bytes(w.k1)...)
		sock.Release(m)
	})
	w.eng.Run()
	return got
}

func variants() []Options {
	return []Options{
		{},
		{Checksum: true},
		{InPlace: true},
		{InPlace: true, Checksum: true},
	}
}

func TestPingPongAllVariants(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	for _, opts := range variants() {
		got := runPingPong(t, opts, payload)
		if len(got) != len(payload) {
			t.Fatalf("opts %+v: got %d bytes, want %d", opts, len(got), len(payload))
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("opts %+v: payload mismatch at %d", opts, i)
			}
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	w := newWorld()
	// Corrupt one payload byte in flight.
	flipped := false
	swInject := func(pkt *netdev.PacketBuf) bool {
		if !flipped && pkt.Len() > 30 {
			data := pkt.Bytes()
			data[len(data)-1] ^= 0xff
			pkt.FCS = netdev.FrameCheck(data) // sneak past the board CRC
			flipped = true
		}
		return true
	}
	w.a1.Sw.Inject = swInject

	var sock2 *Socket
	received := 0
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 5, w.ip2)
		sock2 = NewSocket(st, 53, Options{Checksum: true})
		m, err := sock2.Recv(true)
		if err == nil {
			received++
			sock2.Release(m)
		}
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 5, w.ip1)
		sock := NewSocket(st, 99, Options{Checksum: true})
		_ = sock.SendBytes(w.ip2, 53, []byte("corrupt me corrupt me corrupt me"))
		p.Compute(40 * 1000000) // give time, then send a clean one
		_ = sock.SendBytes(w.ip2, 53, []byte("clean message arriving after!!!!"))
	})
	w.eng.Run()
	if sock2.BadChecksum != 1 {
		t.Fatalf("BadChecksum = %d, want 1", sock2.BadChecksum)
	}
	if received != 1 {
		t.Fatalf("received = %d, want 1 (only the clean datagram)", received)
	}
}

func TestWrongPortIgnored(t *testing.T) {
	w := newWorld()
	var sock2 *Socket
	done := false
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 5, w.ip2)
		sock2 = NewSocket(st, 53, Options{})
		m, _ := sock2.Recv(true)
		sock2.Release(m)
		done = true
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 5, w.ip1)
		sock := NewSocket(st, 99, Options{})
		_ = sock.SendBytes(w.ip2, 54, []byte("wrong port"))
		_ = sock.SendBytes(w.ip2, 53, []byte("right port"))
	})
	w.eng.Run()
	if !done {
		t.Fatal("right-port datagram not delivered")
	}
	if sock2.BadPort != 1 {
		t.Fatalf("BadPort = %d, want 1", sock2.BadPort)
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	// A 20-KB datagram over the AN2's 16-KB frames must fragment and
	// reassemble transparently.
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i ^ (i >> 8))
	}
	got := runPingPong(t, Options{Checksum: true}, payload)
	if len(got) != len(payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestTable2UDPLatencyShape(t *testing.T) {
	// Table II: UDP/AN2 4-byte ping-pong latency ~225 us without checksum,
	// ~244 us with; in-place and copy are equal at this size.
	measure := func(opts Options) float64 {
		w := newWorld()
		const iters = 8
		w.k2.Spawn("server", func(p *aegis.Process) {
			st := w.stackFor(p, w.a2, 5, w.ip2)
			sock := NewSocket(st, 53, opts)
			for i := 0; i < iters; i++ {
				m, err := sock.Recv(true)
				if err != nil {
					t.Error(err)
					return
				}
				data := append([]byte(nil), m.Bytes(w.k2)...)
				sock.Release(m)
				_ = sock.SendBytes(m.From, m.FromPort, data)
			}
		})
		var total sim.Time
		w.k1.Spawn("client", func(p *aegis.Process) {
			st := w.stackFor(p, w.a1, 5, w.ip1)
			sock := NewSocket(st, 1234, opts)
			start := p.K.Now()
			for i := 0; i < iters; i++ {
				_ = sock.SendBytes(w.ip2, 53, []byte{1, 2, 3, 4})
				m, err := sock.Recv(true)
				if err != nil {
					t.Error(err)
					return
				}
				sock.Release(m)
			}
			total = p.K.Now() - start
		})
		w.eng.Run()
		return w.k1.Prof.Us(total) / iters
	}

	noCk := measure(Options{InPlace: true})
	withCk := measure(Options{InPlace: true, Checksum: true})
	if noCk < 210 || noCk > 245 {
		t.Fatalf("UDP no-checksum latency = %.1f us, want ~225 (Table II)", noCk)
	}
	if withCk < noCk+8 || withCk > noCk+35 {
		t.Fatalf("checksum adds %.1f us, want ~19 (Table II: 225->244)", withCk-noCk)
	}
}

// sendToMallocs builds a world in which the client SendTo's n datagrams of
// size bytes from application memory, each answered by a 4-byte SendTo, and
// returns the heap allocations the whole run made.
func sendToMallocs(t *testing.T, size, n int) uint64 {
	t.Helper()
	w := newWorld()
	opts := Options{Checksum: true}
	echoed := 0
	w.k2.Spawn("server", func(p *aegis.Process) {
		sock := NewSocket(w.stackFor(p, w.a2, 5, w.ip2), 53, opts)
		ack := p.AS.MustAlloc(4, "ack")
		for i := 0; i < n; i++ {
			m, err := sock.Recv(true)
			if err != nil || m.N != size {
				t.Errorf("datagram %d: %d bytes, %v", i, m.N, err)
				return
			}
			sock.Release(m)
			if err := sock.SendTo(m.From, m.FromPort, ack.Base, 4); err != nil {
				t.Error(err)
				return
			}
		}
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		sock := NewSocket(w.stackFor(p, w.a1, 5, w.ip1), 1234, opts)
		buf := p.AS.MustAlloc(size, "tx")
		for ; echoed < n; echoed++ {
			if err := sock.SendTo(w.ip2, 53, buf.Base, size); err != nil {
				t.Error(err)
				return
			}
			m, err := sock.Recv(true)
			if err != nil {
				t.Error(err)
				return
			}
			sock.Release(m)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.eng.Run()
	runtime.ReadMemStats(&after)
	if echoed != n {
		t.Fatalf("%d of %d datagrams answered", echoed, n)
	}
	return after.Mallocs - before.Mallocs
}

// TestSendToDoesNotAllocatePerDatagram: a thousand more datagrams through
// the same world, one frame or two fragments each, cost fewer than one heap
// allocation per eight sends — the header is marshalled on the stack and the
// frame composed in the IP stack's own.
func TestSendToDoesNotAllocatePerDatagram(t *testing.T) {
	for _, size := range []int{3072, 20000} {
		few, many := sendToMallocs(t, size, 300), sendToMallocs(t, size, 1300)
		t.Logf("%d-byte datagrams: %d mallocs for 300 round trips, %d for 1300", size, few, many)
		if extra := int64(many) - int64(few); extra*8 >= 2*1000 {
			t.Errorf("%d-byte datagrams: 2000 more sends cost %d more allocations, want under one per eight", size, extra)
		}
	}
}

// handlerFunc is a downloaded handler written as a function.
type handlerFunc func(*aegis.MsgCtx) aegis.Disposition

func (f handlerFunc) HandleMsg(mc *aegis.MsgCtx) aegis.Disposition { return f(mc) }

// TestRecvSkipsDoorbell: a handler consumes the first datagram and rings
// the doorbell; Recv passes over the doorbell, as RecvUntil does, returns
// the second datagram and frees no buffer the doorbell does not hold.
func TestRecvSkipsDoorbell(t *testing.T) {
	w := newWorld()
	var got string
	rang := 0
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 5, w.ip2)
		st.Ep.InstallHandler(handlerFunc(func(mc *aegis.MsgCtx) aegis.Disposition {
			if rang > 0 {
				return aegis.DispToUser
			}
			rang++
			mc.Doorbell()
			return aegis.DispConsumed
		}))
		sock := NewSocket(st, 53, Options{})
		m, err := sock.Recv(true)
		if err != nil {
			t.Error(err)
			return
		}
		got = string(m.Bytes(w.k2))
		sock.Release(m)
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		sock := NewSocket(w.stackFor(p, w.a1, 5, w.ip1), 1234, Options{})
		for _, msg := range []string{"first", "second"} {
			if err := sock.SendBytes(w.ip2, 53, []byte(msg)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	w.eng.Run()
	if rang != 1 || got != "second" || w.a2.Rx.BadFrees != 0 {
		t.Fatalf("doorbells rung %d, Recv returned %q, BadFrees %d; want 1, \"second\", 0", rang, got, w.a2.Rx.BadFrees)
	}
}
