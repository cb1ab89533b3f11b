package flyweight

import (
	"encoding/binary"
	"strings"
	"testing"

	"ashs/internal/fault"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/obs"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/sim"
	"ashs/internal/vcode"
	"ashs/internal/workload"
)

// testWorld is a switch plus one hand-rolled server port: the flyweight
// package's contract is to be wire-exact toward *any* correct peer, so
// these tests talk to tiny scripted servers rather than a full aegis
// kernel (the bench package exercises that pairing end to end).
type testWorld struct {
	eng  *sim.Engine
	prof *mach.Profile
	sw   *netdev.Switch
	srv  *netdev.Port
}

func newTestWorld() *testWorld {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	return &testWorld{eng: eng, prof: prof, sw: sw, srv: sw.NewPort()}
}

func (w *testWorld) cfg(kind Kind, n int) Config {
	return Config{
		Eng: w.eng, Prof: w.prof, Sw: w.sw,
		Kind: kind, N: n,
		ServerIP: ip.HostAddr(w.srv.Addr()), ServerLink: w.srv.Addr(),
		ServerPort: 7, ClientPort: 1234,
		Payload:   16,
		ReadBytes: 512, FileBytes: 2048, Handle: 9,
		Retry: retry.Policy{BaseUs: 10_000, Budget: 3},
		Seed:  42,
	}
}

// transmit leases a pooled buffer for data and sends it from the server
// port.
func (w *testWorld) transmit(dst int, data []byte) error {
	pkt := w.sw.LeaseData(data)
	pkt.Dst = dst
	return w.srv.Transmit(pkt)
}

// reply wraps a UDP payload in server→client framing that must satisfy
// the endpoint's dgram validation.
func (w *testWorld) reply(dstLink int, dstIP ip.Addr, payload []byte) {
	eh := ether.Header{Dst: ether.PortMAC(dstLink), Src: ether.PortMAC(w.srv.Addr()),
		Type: ether.TypeIPv4}
	b := eh.Marshal(nil)
	ih := ip.Header{TotalLen: uint16(ip.HeaderLen + 8 + len(payload)),
		TTL: 64, Proto: ip.ProtoUDP, DF: true, Src: ip.HostAddr(w.srv.Addr()), Dst: dstIP}
	b = ih.Marshal(b)
	b = binary.BigEndian.AppendUint16(b, 7)    // src: server port
	b = binary.BigEndian.AppendUint16(b, 1234) // dst: client port
	b = binary.BigEndian.AppendUint16(b, uint16(8+len(payload)))
	b = binary.BigEndian.AppendUint16(b, 0)
	b = append(b, payload...)
	if err := w.transmit(dstLink, b); err != nil {
		panic(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{UDPEcho: "udp-echo", TCPPingPong: "tcp-pp", NFSRead: "nfs-read"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

func TestNewFleetValidation(t *testing.T) {
	w := newTestWorld()
	mustPanic := func(name string, mutate func(*Config)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewFleet did not panic", name)
			}
		}()
		c := w.cfg(UDPEcho, 2)
		mutate(&c)
		NewFleet(c)
	}
	mustPanic("zero fleet", func(c *Config) { c.N = 0 })
	mustPanic("zero budget", func(c *Config) { c.Retry.Budget = 0 })
	mustPanic("tiny payload", func(c *Config) { c.Payload = 4 })
	mustPanic("nfs without sizes", func(c *Config) { c.Kind = NFSRead; c.ReadBytes = 0 })
}

func TestFleetAccessors(t *testing.T) {
	w := newTestWorld()
	f := NewFleet(w.cfg(UDPEcho, 3))
	if len(f.eps) != 3 {
		t.Fatalf("Len = %d", len(f.eps))
	}
	if f.Addr(0) == f.Addr(1) || f.eps[0].port.Addr() == f.eps[1].port.Addr() {
		t.Fatalf("endpoints share an address: %v %v", f.Addr(0), f.Addr(1))
	}
	if per := f.StaticBytesPerEndpoint(); per <= 0 || per > 1024 {
		t.Fatalf("implausible per-endpoint footprint %d", per)
	}
	tf := NewFleet(w.cfg(TCPPingPong, 1))
	if tf.StaticBytesPerEndpoint() <= f.StaticBytesPerEndpoint() {
		t.Fatalf("TCP endpoint should be larger: %d vs %d",
			tf.StaticBytesPerEndpoint(), f.StaticBytesPerEndpoint())
	}
}

// TestNewFleetAllocatesNoObjectPerEndpoint: the endpoints are one slice
// and their ports are page slots behind one shared receiver, so a
// 4096-endpoint fleet allocates at most one object per 32 endpoints.
func TestNewFleetAllocatesNoObjectPerEndpoint(t *testing.T) {
	const n = 4096
	// AllocsPerRun makes one warm-up call: each call gets its own world.
	worlds := []*testWorld{newTestWorld(), newTestWorld()}
	allocs := testing.AllocsPerRun(1, func() {
		w := worlds[0]
		worlds = worlds[1:]
		NewFleet(w.cfg(UDPEcho, n))
	})
	if allocs > n/32 {
		t.Errorf("a %d-endpoint fleet allocates %v objects, want at most %d", n, allocs, n/32)
	}
}

// TestBroadcastReachesEveryEndpoint: an ARP-shaped broadcast from the
// server is heard by every endpoint, each through its own port, and each
// drops it as not IPv4.
func TestBroadcastReachesEveryEndpoint(t *testing.T) {
	const n = 6
	w := newTestWorld()
	f := NewFleet(w.cfg(UDPEcho, n))
	arp := make([]byte, 42)
	binary.BigEndian.PutUint16(arp[12:], 0x0806)
	if err := w.transmit(netdev.Broadcast, arp); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if f.BadFrames != n {
		t.Fatalf("BadFrames = %d, want one per endpoint (%d)", f.BadFrames, n)
	}
}

// TestUDPEchoCompletes runs trace + incast waves against an echo server
// and checks exact open-loop accounting.
func TestUDPEchoCompletes(t *testing.T) {
	w := newTestWorld()
	f := NewFleet(w.cfg(UDPEcho, 4))
	w.srv.SetReceiver(func(pkt *netdev.PacketBuf) {
		data := pkt.Bytes()
		if !pkt.Intact() {
			t.Fatal("server saw a damaged frame")
		}
		payload := data[ether.HeaderLen+ip.HeaderLen+8:]
		w.reply(pkt.Src, ip.HostAddr(pkt.Src), append([]byte(nil), payload...))
	})

	tr := workload.Poisson(7, workload.Spec{Clients: 4, Events: 32, MeanGapUs: 200, Size: 16})
	f.Run(tr, 2, 4, 1000, 5000)
	w.eng.Run()

	want := uint64(32 + 2*4)
	if f.Completed() != want || f.Failures != 0 || f.Retries != 0 {
		t.Fatalf("completed=%d (want %d) failures=%d retries=%d",
			f.Completed(), want, f.Failures, f.Retries)
	}
	if f.IncastHist.Count() != 2*4 {
		t.Fatalf("incast ops landed in the wrong histogram: %d", f.IncastHist.Count())
	}
}

// TestUDPEchoRetryThenFail runs against a deaf server: every operation
// must burn its full reply-wait budget and be recorded as a failure.
func TestUDPEchoRetryThenFail(t *testing.T) {
	w := newTestWorld()
	f := NewFleet(w.cfg(UDPEcho, 2)) // Budget: 3 windows
	tr := workload.Poisson(7, workload.Spec{Clients: 2, Events: 6, MeanGapUs: 100, Size: 16})
	f.Run(tr, 0, 0, 0, 0)
	w.eng.Run()
	if f.Completed() != 0 || f.Failures != 6 || f.Retries != 2*6 {
		t.Fatalf("completed=%d failures=%d retries=%d (want 0/6/12)",
			f.Completed(), f.Failures, f.Retries)
	}
}

// TestUDPEchoIgnoresForeignFrames feeds the endpoint frames that must be
// dropped without matching any operation: wrong ether type, wrong
// destination port, short payload, and an echo for a seq never sent.
func TestUDPEchoIgnoresForeignFrames(t *testing.T) {
	w := newTestWorld()
	f := NewFleet(w.cfg(UDPEcho, 1))
	link := f.eps[0].port.Addr()
	w.eng.Schedule(1, func() {
		w.reply(link, f.Addr(0), binary.BigEndian.AppendUint32(nil, 77)) // short (4 < 8)
		garbage := make([]byte, 60)                                      // not IPv4 at all
		_ = w.transmit(link, garbage)
		stale := make([]byte, 16) // well-formed but unknown seq
		binary.BigEndian.PutUint32(stale, 4242)
		w.reply(link, f.Addr(0), stale)
	})
	w.eng.Run()
	if f.Completed() != 0 || f.Failures != 0 {
		t.Fatalf("foreign frames changed accounting: %d/%d", f.Completed(), f.Failures)
	}
	if f.BadFrames == 0 {
		t.Fatalf("malformed frame was not counted")
	}
}

// nfsReply builds xid|status|attr(12)|count|data — the READ reply shape
// the endpoint parses.
func nfsReply(xid, status uint32, n int) []byte {
	b := binary.BigEndian.AppendUint32(nil, xid)
	b = binary.BigEndian.AppendUint32(b, status)
	b = append(b, make([]byte, 12)...)
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	return append(b, make([]byte, n)...)
}

// TestNFSReadStatuses checks both reply paths: an OK read completes, an
// error status settles the operation as a failure.
func TestNFSReadStatuses(t *testing.T) {
	w := newTestWorld()
	c := w.cfg(NFSRead, 1)
	f := NewFleet(c)
	w.srv.SetReceiver(func(pkt *netdev.PacketBuf) {
		call := pkt.Bytes()[ether.HeaderLen+ip.HeaderLen+8:]
		xid := binary.BigEndian.Uint32(call)
		if proc := binary.BigEndian.Uint32(call[4:]); proc != nfs.ProcRead {
			t.Fatalf("unexpected proc %d", proc)
		}
		if fh := binary.BigEndian.Uint32(call[8:]); fh != 9 {
			t.Fatalf("unexpected handle %d", fh)
		}
		status := uint32(nfs.OK)
		if xid%2 == 1 { // fail every odd request
			status = nfs.OK + 1
		}
		w.reply(pkt.Src, ip.HostAddr(pkt.Src), nfsReply(xid, status, int(c.ReadBytes)))
	})
	tr := workload.Poisson(7, workload.Spec{Clients: 1, Events: 8, MeanGapUs: 500, Size: 16})
	f.Run(tr, 0, 0, 0, 0)
	w.eng.Run()
	if f.Completed() != 4 || f.Failures != 4 {
		t.Fatalf("completed=%d failures=%d (want 4/4)", f.Completed(), f.Failures)
	}
}

// flyTCPServer is a minimal scripted TCP responder: SYN-ACK the
// handshake, echo data, FIN-ACK the close. Every segment carries the
// end-to-end checksum, as FlyConn requires.
type flyTCPServer struct {
	w     *testWorld
	iss   uint32
	conns map[int]*flySrvConn
	rsts  bool // answer every SYN with RST instead
}

type flySrvConn struct {
	sndNxt, rcvNxt uint32
}

func newFlyTCPServer(w *testWorld) *flyTCPServer {
	s := &flyTCPServer{w: w, iss: 500, conns: map[int]*flySrvConn{}}
	w.srv.SetReceiver(s.rx)
	return s
}

// send transmits one segment, h and then payload, to the endpoint on link
// dst.
func (s *flyTCPServer) send(dst int, h tcp.Header, payload []byte) {
	seg := append(h.Marshal(nil), payload...)
	acc := ip.PseudoCksum(ip.HostAddr(s.w.srv.Addr()), ip.HostAddr(dst), ip.ProtoTCP, len(seg))
	binary.BigEndian.PutUint16(seg[16:], ^vcode.Fold16(vcode.CksumData(acc, seg)))
	eh := ether.Header{Dst: ether.PortMAC(dst), Src: ether.PortMAC(s.w.srv.Addr()),
		Type: ether.TypeIPv4}
	ih := ip.Header{TotalLen: uint16(ip.HeaderLen + len(seg)), TTL: 64,
		Proto: ip.ProtoTCP, Src: ip.HostAddr(s.w.srv.Addr()), Dst: ip.HostAddr(dst)}
	if err := s.w.transmit(dst, append(ih.Marshal(eh.Marshal(nil)), seg...)); err != nil {
		panic(err)
	}
}

func (s *flyTCPServer) rx(pkt *netdev.PacketBuf) {
	seg := pkt.Bytes()[ether.HeaderLen+ip.HeaderLen:]
	h, dataOff, err := tcp.Parse(seg)
	if err != nil {
		return
	}
	base := tcp.Header{SrcPort: h.DstPort, DstPort: h.SrcPort, Window: 8192}
	plen := len(seg) - dataOff
	c := s.conns[pkt.Src]
	switch {
	case h.Flags&tcp.SYN != 0:
		if s.rsts {
			base.Flags, base.Seq = tcp.RST, 0
			s.send(pkt.Src, base, nil)
			return
		}
		if c == nil { // a retransmitted SYN reuses the first SYN-ACK state
			c = &flySrvConn{sndNxt: s.iss + 1, rcvNxt: h.Seq + 1}
			s.conns[pkt.Src] = c
		}
		base.Flags, base.Seq, base.Ack = tcp.SYN|tcp.ACK, s.iss, c.rcvNxt
		s.send(pkt.Src, base, nil)
	case c == nil:
		return
	case h.Flags&tcp.FIN != 0:
		c.rcvNxt = h.Seq + uint32(plen) + 1
		base.Flags, base.Seq, base.Ack = tcp.FIN|tcp.ACK, c.sndNxt, c.rcvNxt
		c.sndNxt++
		s.send(pkt.Src, base, nil)
	case plen > 0 && h.Seq == c.rcvNxt:
		c.rcvNxt += uint32(plen)
		base.Flags, base.Seq, base.Ack = tcp.ACK|tcp.PSH, c.sndNxt, c.rcvNxt
		c.sndNxt += uint32(plen)
		s.send(pkt.Src, base, seg[dataOff:])
	}
}

// TestTCPPingPongLifecycle drives two endpoints through handshake, pings
// (steady and incast), and close against the scripted server.
func TestTCPPingPongLifecycle(t *testing.T) {
	w := newTestWorld()
	c := w.cfg(TCPPingPong, 2)
	f := NewFleet(c)
	newFlyTCPServer(w)

	tr := workload.Poisson(7, workload.Spec{Clients: 2, Events: 10, MeanGapUs: 500, Size: 16})
	f.Run(tr, 1, 2, 2000, 0)
	w.eng.Run()

	want := uint64(10 + 1*2)
	if f.Completed() != want || f.Failures != 0 {
		t.Fatalf("completed=%d (want %d) failures=%d retries=%d",
			f.Completed(), want, f.Failures, f.Retries)
	}
	if f.IncastHist.Count() != 2 {
		t.Fatalf("incast pings: %d (want 2)", f.IncastHist.Count())
	}
}

// TestTCPReset checks the RST path: the endpoint records a failure and
// goes dead, dropping the rest of its schedule.
func TestTCPReset(t *testing.T) {
	w := newTestWorld()
	c := w.cfg(TCPPingPong, 1)
	f := NewFleet(c)
	newFlyTCPServer(w).rsts = true

	tr := workload.Poisson(7, workload.Spec{Clients: 1, Events: 4, MeanGapUs: 500, Size: 16})
	f.Run(tr, 0, 0, 0, 0)
	w.eng.Run()
	if f.Completed() != 0 || f.Failures != 1 {
		t.Fatalf("completed=%d failures=%d (want 0/1)", f.Completed(), f.Failures)
	}
}

// TestFrameCheckUnderThePlane: with the fault plane on the wire toward the
// endpoint, every frame is sealed. A SYN-ACK corrupted without a refresh
// fails the endpoint's frame check (BadFrames); a sneaked one passes it and
// FlyConn's end-to-end checksum drops it. Either way no SYN-ACK gets
// through and the connection fails; with no fault it completes.
func TestFrameCheckUnderThePlane(t *testing.T) {
	for _, c := range []struct {
		name           string
		wire           fault.WireFaults
		seed           int64
		completed, bad uint64
	}{
		{"clean", fault.WireFaults{}, 1, 2, 0},
		{"corrupt", fault.WireFaults{CorruptProb: 1}, 1, 0, 3},
		// Seed 10 puts all three sneaks inside the TCP segment; flips in
		// the Ethernet or IP header are not the checksum's to catch.
		{"sneak", fault.WireFaults{SneakProb: 1}, 10, 0, 0},
	} {
		w := newTestWorld()
		f := NewFleet(w.cfg(TCPPingPong, 1))
		newFlyTCPServer(w)
		fault.New(c.seed, fault.Schedule{Name: c.name, Wire: c.wire}).AttachWire(w.sw)
		plane := w.sw.Inject
		w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
			if pkt.Dst == w.srv.Addr() {
				return true // toward the server: untouched
			}
			before := append([]byte(nil), pkt.Bytes()...)
			ok := plane(pkt)
			// A sneak must land where the end-to-end checksum looks.
			for i := 0; c.wire.SneakProb > 0 && i < ether.HeaderLen+ip.HeaderLen; i++ {
				if before[i] != pkt.Bytes()[i] {
					t.Fatalf("%s: the plane flipped byte %d, ahead of the TCP segment", c.name, i)
				}
			}
			return ok
		}
		f.Run(workload.Poisson(7, workload.Spec{Clients: 1, Events: 2, MeanGapUs: 100, Size: 16}), 0, 0, 0, 0)
		w.eng.Run()
		if f.Completed() != c.completed || f.BadFrames != c.bad {
			t.Errorf("%s: completed %d, %d bad frames; want %d and %d (failures %d, retries %d)",
				c.name, f.Completed(), f.BadFrames, c.completed, c.bad, f.Failures, f.Retries)
		}
	}
}

// TestTCPDeafServer exhausts the SYN budget: the endpoint dies without
// ever completing and the retransmit counter shows the extra windows.
func TestTCPDeafServer(t *testing.T) {
	w := newTestWorld()
	c := w.cfg(TCPPingPong, 1)
	f := NewFleet(c) // Budget: 3
	tr := workload.Poisson(7, workload.Spec{Clients: 1, Events: 2, MeanGapUs: 100, Size: 16})
	f.Run(tr, 0, 0, 0, 0)
	w.eng.Run()
	if f.Completed() != 0 || f.Failures != 1 || f.Retries != 2 {
		t.Fatalf("completed=%d failures=%d retries=%d (want 0/1/2)",
			f.Completed(), f.Failures, f.Retries)
	}
}

// TestRecycledOperationIsNotDisturbed: endpoint 0's operation is settled
// (with a duplicate reply still on its way and its reply-wait timer
// cancelled before it would have fired) or abandoned, and endpoint 1's
// next operation reuses the record from the fleet's free list. The
// duplicate then arrives, and the old timer's instant passes, while the
// reused record is in flight: neither may settle, retransmit or fail it,
// so the counts and both histograms equal those of the same run with
// recycling off.
func TestRecycledOperationIsNotDisturbed(t *testing.T) {
	for _, c := range []struct {
		name string
		ep1  float64           // endpoint 1's arrival, us
		plan map[int][]float64 // request index -> reply delays, us
	}{
		// Endpoint 0's first window would end near 5000 us, endpoint
		// 1's (its van der Corput slot is 1/2) near 8500 us: the reply
		// 6000 us after its request lands between, the duplicate 3000 us
		// after endpoint 0's before both.
		{"settled", 1000, map[int][]float64{0: {100, 3000}, 1: {6000}}},
		// Endpoint 0 burns its three windows (< 70 ms) against silence;
		// the reply to its first send comes at 90 ms, inside endpoint 1's.
		{"abandoned", 80_000, map[int][]float64{0: {90_000}, 1: {}, 2: {}, 3: {15_000}}},
	} {
		type counts struct {
			retries, failures uint64
			hist, incast      obs.Histogram
		}
		run := func(recycle bool) counts {
			w := newTestWorld()
			f := NewFleet(w.cfg(UDPEcho, 2))
			f.noRecycle = !recycle
			i := 0
			w.srv.SetReceiver(func(pkt *netdev.PacketBuf) {
				payload := append([]byte(nil), pkt.Bytes()[ether.HeaderLen+ip.HeaderLen+8:]...)
				delays, ok := c.plan[i]
				if !ok {
					delays = []float64{100}
				}
				i++
				src := pkt.Src
				for _, d := range delays {
					w.eng.Schedule(w.prof.Cycles(d), func() { w.reply(src, ip.HostAddr(src), payload) })
				}
			})
			var first *op
			w.eng.ScheduleAt(w.prof.Cycles(1), func() { first = f.eps[0].out[0] })
			w.eng.ScheduleAt(w.prof.Cycles(c.ep1+1), func() {
				if reused := f.eps[1].out[0] == first; reused != recycle {
					t.Errorf("%s: endpoint 1 reuses endpoint 0's record: %v, want %v", c.name, reused, recycle)
				}
			})
			tr := &workload.Trace{Events: []workload.Event{{AtUs: 0, Client: 0}, {AtUs: c.ep1, Client: 1}}}
			f.Run(tr, 1, 2, 20_000, 0)
			w.eng.Run()
			return counts{f.Retries, f.Failures, *f.Hist, *f.IncastHist}
		}
		with, without := run(true), run(false)
		if with != without {
			t.Errorf("%s: with recycling %d retries, %d failures, %d+%d completed; without %d, %d, %d+%d",
				c.name, with.retries, with.failures, with.hist.Count(), with.incast.Count(),
				without.retries, without.failures, without.hist.Count(), without.incast.Count())
		}
		if with.incast.Count() != 2 || with.hist.Count()+with.failures != 2 {
			t.Errorf("%s: %d+%d completed, %d failed; want both trace operations settled or failed and both incast ones completed",
				c.name, with.hist.Count(), with.incast.Count(), with.failures)
		}
	}
}
