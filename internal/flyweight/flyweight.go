// Package flyweight implements the client side of the megascale fan-in
// experiment: traffic endpoints that attach directly to a netdev.Switch
// port with no aegis kernel, no address space, and no scheduled process
// behind them. A full simulated host costs hundreds of kilobytes (kernel
// arena, receive pool, page tables); a flyweight endpoint is a few
// hundred bytes of protocol state machine plus its switch port, which is
// what lets one simulation drive 10^6 clients at a single server.
//
// The asymmetry is deliberate and one-sided: the *measured* side of the
// experiment — the server — remains a full aegis kernel with its real
// interrupt path, DPF demultiplexer, striping DMA and ASH dispatch,
// byte-for-byte the same code the small-N scale experiment exercises.
// Only the load generators are flyweights, and the frames they emit are
// wire-exact: real Ethernet/IP/UDP headers, real TCP segments with
// end-to-end checksums (tcp.FlyConn), real NFS RPCs. The server cannot
// tell a flyweight peer from a host, which is the property that makes
// the megascale numbers comparable to the scale experiment's.
//
// Endpoints are open-loop: arrival instants come from an
// internal/workload trace, never from the system under test, and every
// request carries a retry budget from internal/proto/retry — jittered
// exponential backoff with van der Corput first-retry spread — so the
// fleet composes with the server's admission control (ring
// high-watermark sheds) instead of synchronously hammering it.
//
// Everything here runs inside simulator event callbacks and is fully
// deterministic: no wall clock, no global PRNG, no map iteration.
package flyweight

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/obs"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
	"ashs/internal/workload"
)

// Kind selects an endpoint's protocol state machine.
type Kind int

const (
	// UDPEcho endpoints fire tagged echo request datagrams and match
	// replies by tag; many requests may be outstanding at once.
	UDPEcho Kind = iota
	// TCPPingPong endpoints open one connection (tcp.FlyConn), ping-pong
	// one fixed-size message per arrival, and close — client FIN first —
	// when the schedule is exhausted.
	TCPPingPong
	// NFSRead endpoints issue NFS READ RPCs over UDP and match replies
	// by xid; like UDPEcho, requests may overlap.
	NFSRead
)

func (k Kind) String() string {
	switch k {
	case UDPEcho:
		return "udp-echo"
	case TCPPingPong:
		return "tcp-pp"
	case NFSRead:
		return "nfs-read"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Config parameterizes a fleet. Server* fields describe the one full
// host everything fans in to.
type Config struct {
	Eng  *sim.Engine
	Prof *mach.Profile
	Sw   *netdev.Switch

	Kind Kind
	// N is the fleet size. Each endpoint gets its own switch port and IP.
	N int

	ServerIP ip.Addr
	// ServerLink is the server's switch port (its link-layer address).
	ServerLink int
	// ServerPort is the destination UDP/TCP port.
	ServerPort uint16
	// ClientPort is every endpoint's local port (endpoints are told apart
	// by IP, exactly like the scale experiment's client hosts).
	ClientPort uint16

	// Payload is the request payload size (UDPEcho and TCPPingPong;
	// minimum 8 — the first 8 bytes tag the operation).
	Payload int

	// ReadBytes/FileBytes/Handle describe the NFSRead workload: each
	// request reads ReadBytes at a rotating offset within a FileBytes
	// file under the given handle.
	ReadBytes uint32
	FileBytes uint32
	Handle    uint32

	// Window and Checksum configure tcp.FlyConn.
	Window   uint16
	Checksum bool

	// Retry is the per-operation backoff schedule. Budget counts
	// reply-wait windows, Next-style: an operation is transmitted once
	// per window and declared failed when the last window expires, so
	// Budget must be >= 1 and an operation is sent at most Budget times.
	Retry retry.Policy
	// Seed feeds the jitter streams (the van der Corput first slot is
	// per-client regardless of seed).
	Seed int64

	// Obs, when non-nil, receives the fleet's footprint gauge.
	Obs *obs.Plane
}

// Fleet is a set of flyweight endpoints plus their shared accounting.
type Fleet struct {
	cfg Config
	eps []*Endpoint

	// Hist collects completed-operation round-trip times from the
	// open-loop trace; IncastHist collects those of incast-wave
	// operations, kept apart so the synchronized burst does not smear
	// the steady-state tail.
	Hist       *obs.Histogram
	IncastHist *obs.Histogram

	// Retries counts retransmissions, Failures operations abandoned with
	// an exhausted budget (plus NFS error statuses), BadFrames arrivals
	// dropped at the endpoint (frame-check mismatch or unparseable).
	Retries   uint64
	Failures  uint64
	BadFrames uint64
}

// Endpoint is one flyweight client: a switch port, an address, and a
// minimal per-kind state machine. Dynamic state (outstanding operations,
// the TCP connection) is allocated only once the endpoint first sends,
// so an idle endpoint in a 10^6 fleet stays at its static footprint.
type Endpoint struct {
	f    *Fleet
	id   int
	port *netdev.Port
	addr ip.Addr

	nextSeq uint32
	out     []*op // outstanding datagram operations (UDPEcho, NFSRead)

	// TCPPingPong state: pend queues arrival incast-flags behind the
	// serial connection, cur is the in-flight step, total the lifetime
	// ping count (known up front from the trace).
	conn    *tcp.FlyConn
	pend    []bool
	cur     *op
	issued  int
	total   int
	closing bool
	dead    bool
}

// op is one in-flight operation: the exact frame on the wire (kept for
// verbatim retransmission), its backoff state, and its reply-wait timer.
type op struct {
	step   int // stepDgram, or the TCP step in flight
	seq    uint32
	frame  []byte
	sentAt sim.Time
	timer  sim.Timer
	bo     retry.State
	incast bool
}

const (
	stepDgram = iota
	stepSyn
	stepPing
	stepFin
)

// NewFleet builds n endpoints on cfg.Sw, one switch port each. The
// server's kernel must already own its port so filters keyed on client
// addresses (ip.HostAddr of each new port) resolve consistently.
func NewFleet(cfg Config) *Fleet {
	if cfg.N <= 0 {
		panic("flyweight: fleet size must be positive")
	}
	if cfg.Retry.Budget < 1 {
		panic("flyweight: retry budget must be >= 1 (it counts reply-wait windows)")
	}
	if (cfg.Kind == UDPEcho || cfg.Kind == TCPPingPong) && cfg.Payload < 8 {
		panic("flyweight: payload must be >= 8 (operation tag)")
	}
	if cfg.Kind == NFSRead && (cfg.ReadBytes == 0 || cfg.FileBytes == 0) {
		panic("flyweight: NFSRead needs ReadBytes and FileBytes")
	}
	f := &Fleet{cfg: cfg, Hist: &obs.Histogram{}, IncastHist: &obs.Histogram{}}
	f.eps = make([]*Endpoint, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ep := &Endpoint{f: f, id: i, port: cfg.Sw.NewPort()}
		ep.addr = ip.HostAddr(ep.port.Addr())
		ep.port.SetReceiver(ep.rx)
		f.eps[i] = ep
	}
	f.cfg.Obs.SetGauge("flyweight/bytes_per_endpoint", int64(f.StaticBytesPerEndpoint()))
	return f
}

// Len is the fleet size.
func (f *Fleet) Len() int { return len(f.eps) }

// Addr is endpoint i's IP address (for building server-side filters).
func (f *Fleet) Addr(i int) ip.Addr { return f.eps[i].addr }

// Link is endpoint i's switch port.
func (f *Fleet) Link(i int) int { return f.eps[i].port.Addr() }

// Completed counts finished operations across both phases.
func (f *Fleet) Completed() uint64 { return f.Hist.Count() + f.IncastHist.Count() }

// StaticBytesPerEndpoint is the resident footprint of one idle endpoint:
// the endpoint record, its switch port, and (TCP) its connection state
// machine. Per-operation buffers are transient and excluded; compare
// with the hundreds of kilobytes a full scale-experiment client host
// pins (kernel arena plus receive pool).
func (f *Fleet) StaticBytesPerEndpoint() int {
	per := int(unsafe.Sizeof(Endpoint{})) + int(unsafe.Sizeof(netdev.Port{}))
	if f.cfg.Kind == TCPPingPong {
		per += int(unsafe.Sizeof(tcp.FlyConn{}))
	}
	return per
}

// Run schedules the fleet's whole lifetime: the trace's open-loop
// arrivals first, then `waves` synchronized incast waves over endpoints
// [0, waveClients), the first wave quietUs after the trace ends and
// subsequent waves waveGapUs apart. Trace events are pumped one engine
// event at a time (a cursor, not a million pre-scheduled closures), so
// the event heap stays O(outstanding), not O(trace).
func (f *Fleet) Run(tr *workload.Trace, waves, waveClients int, quietUs, waveGapUs float64) {
	if waveClients > len(f.eps) {
		waveClients = len(f.eps)
	}
	if f.cfg.Kind == TCPPingPong {
		for _, ev := range tr.Events {
			if ev.Client < len(f.eps) {
				f.eps[ev.Client].total++
			}
		}
		for w := 0; w < waves; w++ {
			for c := 0; c < waveClients; c++ {
				f.eps[c].total++
			}
		}
	}
	if len(tr.Events) > 0 {
		f.pumpFrom(tr.Events, 0)
	}
	base := tr.Duration() + quietUs
	for w := 0; w < waves; w++ {
		at := f.cfg.Prof.Cycles(base + float64(w)*waveGapUs)
		for c := 0; c < waveClients; c++ {
			ep := f.eps[c]
			f.cfg.Eng.ScheduleAt(at, func() { ep.arrive(true) })
		}
	}
}

// pumpFrom schedules trace event i and, from inside its callback, the
// next one — the lazy cursor that keeps 10^6-client traces cheap.
func (f *Fleet) pumpFrom(evs []workload.Event, i int) {
	f.cfg.Eng.ScheduleAt(f.cfg.Prof.Cycles(evs[i].AtUs), func() {
		if c := evs[i].Client; c < len(f.eps) {
			f.eps[c].arrive(false)
		}
		if i+1 < len(evs) {
			f.pumpFrom(evs, i+1)
		}
	})
}

// arrive is one open-loop arrival: a datagram kind launches the
// operation immediately (overlap allowed), TCP queues it behind the
// serial connection.
func (ep *Endpoint) arrive(incast bool) {
	if ep.dead {
		return
	}
	if ep.f.cfg.Kind == TCPPingPong {
		ep.pend = append(ep.pend, incast)
		ep.pump()
		return
	}
	ep.startDgram(incast)
}

// launch transmits o's frame, charges the first reply-wait window to the
// budget, and arms the timer. It reports false when the budget cannot
// cover even one window.
func (ep *Endpoint) launch(o *op) bool {
	wait, ok := o.bo.Next()
	if !ok {
		ep.f.Failures++
		return false
	}
	o.sentAt = ep.f.cfg.Eng.Now()
	ep.transmit(o.frame)
	o.timer = ep.f.cfg.Eng.Schedule(ep.f.cfg.Prof.Cycles(wait), func() { ep.expire(o) })
	return true
}

// expire handles a reply-wait window running out: retransmit the exact
// bytes and back off, or — budget exhausted — abandon the operation.
func (ep *Endpoint) expire(o *op) {
	o.timer = sim.Timer{}
	wait, ok := o.bo.Next()
	if !ok {
		ep.f.Failures++
		ep.abandon(o)
		return
	}
	ep.f.Retries++
	ep.transmit(o.frame)
	o.timer = ep.f.cfg.Eng.Schedule(ep.f.cfg.Prof.Cycles(wait), func() { ep.expire(o) })
}

// abandon removes a failed operation. A TCP endpoint cannot make
// progress past a lost step (the connection is serial), so it dies.
func (ep *Endpoint) abandon(o *op) {
	if ep.f.cfg.Kind == TCPPingPong {
		ep.cur = nil
		ep.dead = true
		return
	}
	for i, q := range ep.out {
		if q == o {
			ep.out = append(ep.out[:i], ep.out[i+1:]...)
			return
		}
	}
}

// settle completes an operation: timer off, round trip observed (TCP
// handshake and close steps are bookkeeping, not operations).
func (ep *Endpoint) settle(o *op, observe bool) {
	ep.f.cfg.Eng.Cancel(o.timer) // zero or stale timers cancel as no-ops
	o.timer = sim.Timer{}
	if observe {
		h := ep.f.Hist
		if o.incast {
			h = ep.f.IncastHist
		}
		h.Observe(ep.f.cfg.Eng.Now() - o.sentAt)
	}
}

// transmit leases a pooled buffer and copies the frame in (LeaseData
// copies, so op.frame stays pristine for verbatim retransmission).
func (ep *Endpoint) transmit(frame []byte) {
	pkt := ep.f.cfg.Sw.LeaseData(frame)
	pkt.Dst = ep.f.cfg.ServerLink
	if err := ep.port.Transmit(pkt); err != nil {
		panic(err)
	}
}

// rx is the endpoint's receive path. The frame buffer is borrowed for
// the duration of the call; the frame check mirrors the full driver's:
// a corrupted frame is dropped for the retry machinery to recover,
// never parsed.
func (ep *Endpoint) rx(pkt *netdev.PacketBuf) {
	data := pkt.Bytes()
	if pkt.FCS != netdev.FrameCheck(data) {
		ep.f.BadFrames++
		return
	}
	switch ep.f.cfg.Kind {
	case UDPEcho:
		ep.rxEcho(data)
	case TCPPingPong:
		ep.rxTCP(data)
	case NFSRead:
		ep.rxNFS(data)
	}
}

// ---- datagram kinds (UDPEcho, NFSRead) ----

const (
	udpPayloadOff = ether.HeaderLen + ip.HeaderLen + udp.HeaderLen
)

// startDgram launches one tagged request datagram.
func (ep *Endpoint) startDgram(incast bool) {
	seq := ep.nextSeq
	ep.nextSeq++
	var frame []byte
	switch ep.f.cfg.Kind {
	case UDPEcho:
		frame = ep.udpFrame(ep.f.cfg.Payload)
		ep.echoPayload(frame[udpPayloadOff:], seq)
	case NFSRead:
		frame = ep.udpFrame(readCallLen)
		ep.readCall(frame[udpPayloadOff:], seq)
	}
	o := &op{step: stepDgram, seq: seq, frame: frame, incast: incast,
		bo: retry.New(ep.f.cfg.Retry, ep.f.cfg.Seed, ep.id)}
	if ep.launch(o) {
		ep.out = append(ep.out, o)
	}
}

// take removes and returns the outstanding operation tagged seq.
func (ep *Endpoint) take(seq uint32) *op {
	for i, o := range ep.out {
		if o.seq == seq {
			ep.out = append(ep.out[:i], ep.out[i+1:]...)
			return o
		}
	}
	return nil
}

// dgram validates the UDP framing of an arriving reply and returns its
// payload (nil if the frame is not ours).
func (ep *Endpoint) dgram(data []byte) []byte {
	if len(data) < udpPayloadOff ||
		binary.BigEndian.Uint16(data[12:14]) != ether.TypeIPv4 ||
		data[ether.HeaderLen+9] != ip.ProtoUDP ||
		binary.BigEndian.Uint16(data[ether.HeaderLen+ip.HeaderLen+2:]) != ep.f.cfg.ClientPort {
		ep.f.BadFrames++
		return nil
	}
	return data[udpPayloadOff:]
}

func (ep *Endpoint) rxEcho(data []byte) {
	p := ep.dgram(data)
	if p == nil || len(p) < 8 {
		return
	}
	// A late echo of a retransmitted (already settled) request matches
	// nothing and is dropped silently.
	if o := ep.take(binary.BigEndian.Uint32(p)); o != nil {
		ep.settle(o, true)
	}
}

func (ep *Endpoint) rxNFS(data []byte) {
	p := ep.dgram(data)
	if p == nil || len(p) < 8 {
		return
	}
	o := ep.take(binary.BigEndian.Uint32(p)) // xid
	if o == nil {
		return
	}
	if status := binary.BigEndian.Uint32(p[4:8]); status != nfs.OK || len(p) < 24 {
		ep.settle(o, false)
		ep.f.Failures++
		return
	}
	ep.settle(o, true)
}

// echoPayload tags an echo request in place: seq, then the client id, then
// deterministic filler.
func (ep *Endpoint) echoPayload(p []byte, seq uint32) {
	binary.BigEndian.PutUint32(p, seq)
	binary.BigEndian.PutUint32(p[4:], uint32(ep.id))
	for i := 8; i < len(p); i++ {
		p[i] = byte(ep.id + i)
	}
}

// readCallLen is the size of a READ call: xid, procedure, handle, offset,
// count.
const readCallLen = 20

// readCall marshals one NFS READ RPC in place, xid = seq, reading ReadBytes
// at a rotating offset.
func (ep *Endpoint) readCall(p []byte, seq uint32) {
	cfg := &ep.f.cfg
	binary.BigEndian.PutUint32(p, seq)
	binary.BigEndian.PutUint32(p[4:], nfs.ProcRead)
	binary.BigEndian.PutUint32(p[8:], cfg.Handle)
	binary.BigEndian.PutUint32(p[12:], (seq*cfg.ReadBytes)%cfg.FileBytes)
	binary.BigEndian.PutUint32(p[16:], cfg.ReadBytes)
}

// udpFrame is the one allocation of a datagram operation: a frame with
// room for n payload bytes, which the caller writes in place behind the
// Ethernet+IP+UDP headers from this endpoint to the server. The UDP
// checksum is zero (unused), matching the full library's default and the
// receive path's checksum-zero skip.
func (ep *Endpoint) udpFrame(n int) []byte {
	cfg := &ep.f.cfg
	b := ep.linkIP(make([]byte, 0, udpPayloadOff+n), ip.ProtoUDP, udp.HeaderLen+n)
	uh := udp.Header{SrcPort: cfg.ClientPort, DstPort: cfg.ServerPort, Length: uint16(udp.HeaderLen + n)}
	return uh.Marshal(b)[:udpPayloadOff+n]
}

// linkIP appends the Ethernet and IP headers of a datagram of n transport
// bytes from this endpoint to the server.
func (ep *Endpoint) linkIP(b []byte, proto byte, n int) []byte {
	cfg := &ep.f.cfg
	eh := ether.Header{Dst: ether.PortMAC(cfg.ServerLink), Src: ether.PortMAC(ep.port.Addr()),
		Type: ether.TypeIPv4}
	ih := ip.Header{TotalLen: uint16(ip.HeaderLen + n),
		TTL: 64, Proto: proto, DF: true, Src: ep.addr, Dst: cfg.ServerIP}
	return ih.Marshal(eh.Marshal(b))
}

// ---- TCPPingPong ----

// pump advances the serial connection: open on the first arrival, one
// ping per queued arrival once established, FIN after the last.
func (ep *Endpoint) pump() {
	if ep.dead || ep.closing || ep.cur != nil {
		return
	}
	cfg := &ep.f.cfg
	switch {
	case ep.conn == nil:
		if len(ep.pend) == 0 {
			return
		}
		ep.conn = tcp.NewFlyConn(ep.addr, cfg.ServerIP, cfg.ClientPort, cfg.ServerPort,
			1000*uint32(ep.id)+1, cfg.Window, cfg.Checksum)
		ep.startStep(stepSyn, ep.conn.Syn(), false)
	case len(ep.pend) > 0:
		incast := ep.pend[0]
		ep.pend = ep.pend[1:]
		ep.issued++
		seq := ep.nextSeq
		ep.nextSeq++
		p := make([]byte, cfg.Payload)
		ep.echoPayload(p, seq)
		ep.startStep(stepPing, ep.conn.Data(p), incast)
	case ep.issued == ep.total:
		ep.closing = true
		ep.startStep(stepFin, ep.conn.Fin(), false)
	}
}

// startStep launches one serial connection step (SYN, ping, or FIN) with
// the usual retransmission machinery around the raw segment.
func (ep *Endpoint) startStep(step int, seg []byte, incast bool) {
	o := &op{step: step, frame: ep.tcpFrame(seg), incast: incast,
		bo: retry.New(ep.f.cfg.Retry, ep.f.cfg.Seed, ep.id)}
	if ep.launch(o) {
		ep.cur = o
	} else {
		ep.dead = true
	}
}

func (ep *Endpoint) rxTCP(data []byte) {
	if len(data) < ether.HeaderLen+ip.HeaderLen+tcp.HeaderLen ||
		binary.BigEndian.Uint16(data[12:14]) != ether.TypeIPv4 ||
		data[ether.HeaderLen+9] != ip.ProtoTCP {
		ep.f.BadFrames++
		return
	}
	if ep.conn == nil {
		return
	}
	reply, payload, err := ep.conn.OnSegment(data[ether.HeaderLen+ip.HeaderLen:])
	if err != nil {
		// Peer reset: the connection is gone; fail the in-flight step.
		if ep.cur != nil {
			ep.settle(ep.cur, false)
			ep.cur = nil
		}
		ep.f.Failures++
		ep.dead = true
		return
	}
	if reply != nil {
		ep.transmit(ep.tcpFrame(reply))
	}
	if o := ep.cur; o != nil {
		switch {
		case o.step == stepSyn && ep.conn.Established():
			ep.settle(o, false)
			ep.cur = nil
		case o.step == stepPing && len(payload) > 0:
			ep.settle(o, true)
			ep.cur = nil
		case o.step == stepFin && ep.conn.Done():
			ep.settle(o, false)
			ep.cur = nil
			ep.dead = true // fully closed; nothing more to do
			return
		}
	}
	ep.pump()
}

// tcpFrame wraps a raw segment in Ethernet+IP headers to the server.
func (ep *Endpoint) tcpFrame(seg []byte) []byte {
	b := make([]byte, 0, ether.HeaderLen+ip.HeaderLen+len(seg))
	return append(ep.linkIP(b, ip.ProtoTCP, len(seg)), seg...)
}
