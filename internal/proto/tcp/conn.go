package tcp

import (
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/retry"
	"ashs/internal/sim"
)

// State is the RFC 793 connection state.
type State int

// Connection states.
const (
	Closed State = iota
	Listen
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	CloseWait
	Closing
	LastAck
	TimeWait
)

var stateNames = [...]string{"CLOSED", "LISTEN", "SYN-SENT", "SYN-RCVD",
	"ESTABLISHED", "FIN-WAIT-1", "FIN-WAIT-2", "CLOSE-WAIT", "CLOSING",
	"LAST-ACK", "TIME-WAIT"}

func (s State) String() string { return stateNames[s] }

// Mode selects where the common-case receive fast path runs (Table VI).
type Mode int

// Fast-path placements.
const (
	// ModeUser: all processing in the user-level library.
	ModeUser Mode = iota
	// ModeASH: sandboxed ASH fast path downloaded into the kernel.
	ModeASH
	// ModeASHUnsafe: the same handler without sandboxing costs.
	ModeASHUnsafe
	// ModeUpcall: the same handler run as a fast asynchronous upcall.
	ModeUpcall
)

// Config parameterizes a connection.
type Config struct {
	Mode     Mode
	Sys      *core.System // the host's ASH system (required for non-user modes)
	Polling  bool         // app busy-waits (vs blocking/interrupt-driven)
	Checksum bool         // end-to-end Internet checksums
	InPlace  bool         // app consumes data in the receive buffers (no read copy)
	MSS      int          // maximum segment size (payload bytes)
	Window   int          // fixed send/receive window
	// AckDelayUs is the delayed-acknowledgment timer (piggybacking
	// window); AckEveryBytes forces an immediate ACK once this much data
	// is unacknowledged.
	AckDelayUs float64
	// RTOUs is the initial retransmission timeout, used until the first
	// round-trip sample. The timer then adapts (srtt + 4*rttvar, RFC 6298
	// style) within [MinRTOUs, MaxRTOUs], doubling per retransmission;
	// Karn's rule keeps retransmitted segments out of the estimator.
	RTOUs         float64
	MinRTOUs      float64
	MaxRTOUs      float64
	MaxRetransmit int
	// JitterSeed, when nonzero, turns on deterministic jittered backoff:
	// each backed-off retransmission timeout is scaled into [1/2, 1) of
	// its doubled value by a per-connection stream seeded from
	// (JitterSeed, JitterClient). Distinctly numbered clients sharing a
	// seed desynchronize their first retries by construction (see
	// retry.Jitter), so a synchronized loss event does not produce a
	// synchronized retry storm. Zero keeps classic doubling bit-for-bit.
	JitterSeed   int64
	JitterClient int
	// RetryBudget, when positive, bounds total retransmissions over the
	// connection's lifetime; once spent, the next due retransmission
	// tears the connection down instead of sending. This is the
	// client-side half of overload control: a saturated server sheds,
	// and budgeted clients stop amplifying the load. Zero means only
	// the per-segment MaxRetransmit bound applies.
	RetryBudget int
}

// DefaultConfig is the paper's AN2 configuration: MSS 3072, window 8 KB.
func DefaultConfig() Config {
	return Config{
		Mode: ModeUser, Polling: true, Checksum: true,
		MSS: 3072, Window: 8192,
		AckDelayUs: 500, RTOUs: 200_000, MinRTOUs: 2_000, MaxRTOUs: 1_600_000,
		MaxRetransmit: 8,
	}
}

// Costs are the library's per-operation processing charges (cycles).
type Costs struct {
	Output     sim.Time // segment construction, PCB update, timer work
	Input      sim.Time // full input processing (validation + state machine)
	Predict    sim.Time // header-prediction hit
	CksumFixed sim.Time // fixed checksum-path setup
	Boundary   sim.Time // read/write call boundary (enter/exit library)
}

// DefaultCosts is the calibrated cost set (see DESIGN.md and Table II).
func DefaultCosts() Costs {
	return Costs{Output: 1200, Input: 1100, Predict: 380, CksumFixed: 500, Boundary: 520}
}

// rseg is an in-order received segment awaiting Read (library modes).
type rseg struct {
	d    ip.Dgram
	off  int // payload offset within the datagram payload
	n    int
	read int // bytes already consumed
}

// rtxSeg is an unacknowledged segment held for retransmission.
type rtxSeg struct {
	seq       uint32
	flags     Flags
	data      []byte
	deadline  sim.Time
	rto       sim.Time
	sentAt    sim.Time
	rexmitted bool // Karn's rule: never sample RTT off a retransmitted segment
	tries     int
}

// Conn is a TCP connection endpoint.
type Conn struct {
	St    *ip.Stack
	Cfg   Config
	Costs Costs

	state      State
	localPort  uint16
	remotePort uint16
	remoteIP   ip.Addr

	iss, irs       uint32
	sndUna, sndNxt uint32
	sndWnd         int
	sndWl1, sndWl2 uint32 // seq/ack of the last segment that updated sndWnd
	rcvNxt         uint32
	finSeq         uint32 // our FIN's sequence number
	peerClosed     bool

	// Library-mode receive queue (data stays in receive buffers until
	// Read copies it to the application: the "additional copy between the
	// network and application data structures" of Section IV-D).
	rxq      []rseg
	rxqBytes int

	// Handler-mode receive ring: the fast path places data here with one
	// integrated DILP traversal; Read consumes in place.
	hring      aegis.Segment
	hrHead     int // absolute byte counts; ring offset = count % Window
	hrTail     int
	tcbLocked  bool
	slowQueued int // slow-path segments pending, handler must keep order

	// Timers (absolute deadlines; 0 = unarmed).
	rtxq            []rtxSeg
	rtxFree         [][]byte // the retransmit store's idle slabs (see hold)
	ackDue          bool
	ackDeadline     sim.Time
	unacked         int
	persistDeadline sim.Time // zero-window probe timer
	persistRTO      sim.Time

	// Round-trip estimation (RFC 6298 shape): rto == 0 means "no sample
	// yet, use Cfg.RTOUs".
	srtt, rttvar, rto sim.Time

	fast *fastPath // installed handler, if any

	jit *retry.Jitter // backoff jitter stream; nil = classic doubling

	// scratchSeg backs WriteBytes staging; zero Len means unallocated.
	scratchSeg aegis.Segment

	// Statistics.
	PredictHits, PredictMisses     uint64
	HandlerConsumed, HandlerAborts uint64
	Retransmits, BadChecksum       uint64
	SegsIn, SegsOut                uint64

	err error
}

// State reports the connection state.
func (c *Conn) State() State { return c.state }

// newConn builds the PCB. Allocating the handler ring can fail if the
// guest's host is out of physical memory; the error propagates out of
// Connect/Accept instead of crashing the simulation.
func newConn(st *ip.Stack, cfg Config, localPort uint16) (*Conn, error) {
	if cfg.MSS <= 0 || cfg.Window <= 0 {
		panic("tcp: bad config")
	}
	c := &Conn{St: st, Cfg: cfg, Costs: DefaultCosts(), localPort: localPort}
	if cfg.JitterSeed != 0 {
		c.jit = retry.NewJitter(cfg.JitterSeed, cfg.JitterClient)
	}
	if cfg.Mode != ModeUser {
		seg, err := st.Ep.Owner().AS.Alloc(cfg.Window, fmt.Sprintf("tcp-%d-hring", localPort))
		if err != nil {
			return nil, err
		}
		c.hring = seg
	}
	return c, nil
}

func (c *Conn) owner() *aegis.Process { return c.St.Ep.Owner() }
func (c *Conn) kern() *aegis.Kernel   { return c.St.Ep.Kernel() }
func (c *Conn) now() sim.Time         { return c.kern().Now() }

// traceSpan emits a protocol-library span covering [t0, now) on the
// connection's host. Nil-plane safe; tracing charges nothing.
func (c *Conn) traceSpan(name string, t0 sim.Time) {
	if o := c.kern().Obs; o.Enabled() {
		o.Span(c.kern().Name, "tcp "+c.owner().Name, "proto", name,
			t0, c.now()-t0)
	}
}

// Connect performs an active open and blocks until established.
func Connect(st *ip.Stack, cfg Config, localPort uint16, remote ip.Addr, remotePort uint16) (*Conn, error) {
	c, err := newConn(st, cfg, localPort)
	if err != nil {
		return nil, err
	}
	c.remoteIP = remote
	c.remotePort = remotePort
	c.iss = 1000*uint32(localPort) + 7
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.state = SynSent
	c.sendSegment(SYN, c.iss, nil, 0, true)
	c.sndNxt = c.iss + 1
	for c.state != Established && c.err == nil {
		c.waitEvent(0)
	}
	if c.err != nil {
		return nil, c.err
	}
	c.installFastPath()
	return c, nil
}

// Accept performs a passive open on localPort and blocks until established.
func Accept(st *ip.Stack, cfg Config, localPort uint16) (*Conn, error) {
	c, err := newConn(st, cfg, localPort)
	if err != nil {
		return nil, err
	}
	c.state = Listen
	c.iss = 2000*uint32(localPort) + 13
	for c.state != Established && c.err == nil {
		c.waitEvent(0)
	}
	if c.err != nil {
		return nil, c.err
	}
	c.installFastPath()
	return c, nil
}

// installFastPath downloads the handler for non-user modes.
func (c *Conn) installFastPath() {
	if c.Cfg.Mode == ModeUser {
		return
	}
	c.fast = installFastPath(c)
}

// errClosed reports operations on a dead connection.
var errClosed = fmt.Errorf("tcp: connection closed")

// -------------------------------------------------------------------
// Output
// -------------------------------------------------------------------

// segPayload reads payload bytes for transmission.
func (c *Conn) segPayload(addr uint32, n int) []byte {
	if n == 0 {
		return nil
	}
	b, err := c.owner().AS.Bytes(addr, n)
	if err != nil {
		panic(fmt.Sprintf("tcp: payload outside address space: %v", err))
	}
	return b
}

// sendSegment builds and transmits one segment. payloadAddr/n name data in
// the application's address space (checksum traversal is charged against
// its real cache state). Control segments pass n == 0.
func (c *Conn) sendSegment(flags Flags, seq uint32, payloadAddr *uint32, n int, addToRtx bool) {
	p := c.owner()
	t0 := c.now()
	p.Compute(c.Costs.Output)

	var data []byte
	if n > 0 {
		data = c.segPayload(*payloadAddr, n)
	}
	h := Header{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: seq, Flags: flags, Window: uint16(c.advertisedWindow()),
	}
	if flags&ACK != 0 {
		h.Ack = c.rcvNxt
	}
	var acc uint32
	if c.Cfg.Checksum {
		p.Compute(c.Costs.CksumFixed)
		if n > 0 {
			acc = link.CksumRange(p, c.kern(), *payloadAddr, n)
		}
	}
	c.ackDue = false
	c.ackDeadline = 0
	c.unacked = 0
	if addToRtx {
		// The segment's bytes are copied now: a retransmission resends what
		// was sent, not what the application's buffer holds by then. The
		// first transmission goes out from the same copy.
		data = c.hold(data)
		rto := c.currentRTO()
		c.rtxq = append(c.rtxq, rtxSeg{
			seq: seq, flags: flags, data: data,
			deadline: c.now() + rto, rto: rto, sentAt: c.now(),
		})
	}
	c.emit(&h, data, acc, "tcp output", t0)
}

// emit is the one segment builder, of first transmissions and
// retransmissions alike: it completes h's checksum from the payload's sum,
// marshals h on the stack and hands header and payload to the IP stack,
// which composes the frame.
func (c *Conn) emit(h *Header, data []byte, dataAcc uint32, span string, t0 sim.Time) {
	if c.Cfg.Checksum {
		acc := ip.PseudoCksum(c.St.Local, c.remoteIP, ip.ProtoTCP, HeaderLen+len(data))
		h.Checksum = ^link.FoldCksum(acc + h.headerAccum() + dataAcc)
	}
	c.SegsOut++
	c.traceSpan(span, t0)
	var hdr [HeaderLen]byte
	if err := c.St.Send(ip.ProtoTCP, c.remoteIP, h.Marshal(hdr[:0]), data); err != nil {
		c.err = err
	}
}

// hold copies a queued segment's bytes into a slab of the retransmit store
// and returns the copy. The store is the slabs themselves: one goes out per
// data segment in flight — Write never has more than Cfg.Window bytes
// unacknowledged — and comes back through release when the segment leaves
// the queue, so a steady transfer recycles the few it minted at the start.
func (c *Conn) hold(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	var slab []byte
	if k := len(c.rtxFree); k > 0 {
		slab, c.rtxFree = c.rtxFree[k-1], c.rtxFree[:k-1]
	}
	return append(slab, data...)
}

// release returns the slab of a segment that is leaving the queue.
func (c *Conn) release(r *rtxSeg) {
	if r.data != nil {
		c.rtxFree = append(c.rtxFree, r.data[:0])
	}
}

// sendAck emits a bare acknowledgment.
func (c *Conn) sendAck() { c.sendSegment(ACK, c.sndNxt, nil, 0, false) }

// advertisedWindow is the receive window we offer.
func (c *Conn) advertisedWindow() int {
	used := c.rxqBytes
	if c.Cfg.Mode != ModeUser {
		used += c.hrTail - c.hrHead
	}
	w := c.Cfg.Window - used
	if w < 0 {
		w = 0
	}
	return w
}

// Write sends n bytes at addr and blocks until every byte is acknowledged
// (the paper: "the write call is synchronous; write waits for an
// acknowledgment before returning").
func (c *Conn) Write(addr uint32, n int) error {
	if c.state != Established && c.state != CloseWait {
		return errClosed
	}
	p := c.owner()
	t0b := c.now()
	p.Compute(c.Costs.Boundary)
	c.traceSpan("tcp boundary", t0b)
	sent := 0
	for sent < n && c.err == nil {
		// Respect the peer's window against unacknowledged data.
		inFlight := int(c.sndNxt - c.sndUna)
		window := c.sndWnd
		if window > c.Cfg.Window {
			window = c.Cfg.Window
		}
		avail := window - inFlight
		if avail <= 0 {
			if c.sndWnd == 0 && c.sndUna == c.sndNxt && c.persistDeadline == 0 {
				// Zero window and nothing in flight: no retransmission will
				// ever fire, so only a persist probe can reopen the window.
				c.persistRTO = c.currentRTO()
				c.persistDeadline = c.now() + c.persistRTO
			}
			c.waitEvent(0)
			continue
		}
		seg := c.Cfg.MSS
		if seg > n-sent {
			seg = n - sent
		}
		if seg > avail {
			seg = avail
		}
		a := addr + uint32(sent)
		c.lockTCB()
		c.sendSegment(ACK|PSH, c.sndNxt, &a, seg, true)
		c.sndNxt += uint32(seg)
		c.unlockTCB()
		sent += seg
	}
	// Synchronous: wait until all data is acknowledged.
	for c.sndUna != c.sndNxt && c.err == nil {
		c.waitEvent(0)
	}
	return c.err
}

// WriteBytes stages data into a scratch segment and writes it.
func (c *Conn) WriteBytes(data []byte) error {
	seg, err := c.scratch(len(data))
	if err != nil {
		return err
	}
	copy(c.kern().Bytes(seg, len(data)), data)
	return c.Write(seg, len(data))
}

// scratch returns the base of a scratch segment of at least n bytes,
// growing it on demand. Allocation failure is a runtime condition (guest
// memory exhaustion), so it surfaces as an error instead of panicking.
func (c *Conn) scratch(n int) (uint32, error) {
	if c.scratchSeg.Len == 0 || int(c.scratchSeg.Len) < n {
		seg, err := c.owner().AS.Alloc(max(n, 16384), "tcp-scratch")
		if err != nil {
			return 0, err
		}
		c.scratchSeg = seg
	}
	return c.scratchSeg.Base, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// -------------------------------------------------------------------
// Input / event loop
// -------------------------------------------------------------------

// nextDeadline folds the connection's timers.
func (c *Conn) nextDeadline(user sim.Time) sim.Time {
	d := user
	merge := func(t sim.Time) {
		if t != 0 && (d == 0 || t < d) {
			d = t
		}
	}
	for i := range c.rtxq {
		merge(c.rtxq[i].deadline)
	}
	if c.ackDue {
		merge(c.ackDeadline)
	}
	merge(c.persistDeadline)
	return d
}

// waitEvent advances the connection: it waits for the next datagram,
// doorbell, or timer and processes it.
func (c *Conn) waitEvent(userDeadline sim.Time) {
	d, got, err := c.St.RecvUntil(c.Cfg.Polling, c.nextDeadline(userDeadline))
	if err != nil {
		c.err = err
		return
	}
	if got && !d.Doorbell {
		c.input(d)
	}
	// Doorbells carry no payload: the handler updated shared state; the
	// checks below and the caller's loop condition re-examine it.
	c.checkTimers()
}

// checkTimers fires due retransmissions and delayed ACKs.
func (c *Conn) checkTimers() {
	now := c.now()
	if c.ackDue && c.ackDeadline != 0 && now >= c.ackDeadline {
		c.sendAck()
	}
	if c.persistDeadline != 0 && now >= c.persistDeadline {
		if c.sndWnd == 0 && c.sndUna == c.sndNxt &&
			(c.state == Established || c.state == CloseWait) {
			if o := c.kern().Obs; o.Enabled() {
				o.Instant(c.kern().Name, "tcp "+c.owner().Name, "proto",
					"tcp persist probe", now)
				o.Inc("tcp/persist_probes")
			}
			c.sendWindowProbe()
			c.persistRTO *= 2
			if m := c.maxRTO(); c.persistRTO > m {
				c.persistRTO = m
			}
			c.persistDeadline = now + c.persistRTO
		} else {
			c.persistDeadline, c.persistRTO = 0, 0
		}
	}
	for i := 0; i < len(c.rtxq); i++ {
		r := &c.rtxq[i]
		if seqLE(r.seq+uint32(len(r.data)), c.sndUna) && r.flags&(SYN|FIN) == 0 ||
			r.flags&(SYN|FIN) != 0 && seqLT(r.seq, c.sndUna) {
			// Acknowledged (possibly by the fast path); drop.
			c.release(r)
			c.rtxq = append(c.rtxq[:i], c.rtxq[i+1:]...)
			i--
			continue
		}
		if now >= r.deadline {
			if r.tries >= c.Cfg.MaxRetransmit {
				c.teardown(fmt.Errorf("tcp: too many retransmissions of seq %d", r.seq))
				return
			}
			if b := c.Cfg.RetryBudget; b > 0 && c.Retransmits >= uint64(b) {
				c.teardown(fmt.Errorf("tcp: retry budget (%d) exhausted at seq %d", b, r.seq))
				return
			}
			r.tries++
			c.Retransmits++
			if o := c.kern().Obs; o.Enabled() {
				o.Instant(c.kern().Name, "tcp "+c.owner().Name, "proto",
					"tcp retransmit", now)
				o.Inc("tcp/retransmits")
			}
			r.rexmitted = true
			r.rto *= 2
			if maxRTO := c.maxRTO(); r.rto > maxRTO {
				r.rto = maxRTO
			}
			if c.jit != nil {
				// Equal jitter: land in [rto/2, rto), floored at the
				// minimum RTO, so concurrent losers spread their retries
				// across half the backoff window instead of colliding.
				j := r.rto/2 + sim.Time(float64(r.rto/2)*c.jit.Frac())
				if minv := c.minRTO(); j < minv {
					j = minv
				}
				r.rto = j
			}
			// Karn: the backed-off timeout also governs segments sent until
			// a fresh sample from an unretransmitted segment arrives.
			c.rto = r.rto
			r.deadline = now + r.rto
			c.retransmit(r)
		}
	}
}

// currentRTO is the timeout for a freshly sent segment.
func (c *Conn) currentRTO() sim.Time {
	if c.rto != 0 {
		return c.rto
	}
	return c.kern().Prof.Cycles(c.Cfg.RTOUs)
}

func (c *Conn) minRTO() sim.Time {
	us := c.Cfg.MinRTOUs
	if us <= 0 {
		us = 2_000
	}
	return c.kern().Prof.Cycles(us)
}

func (c *Conn) maxRTO() sim.Time {
	us := c.Cfg.MaxRTOUs
	if us <= 0 {
		us = 8 * c.Cfg.RTOUs
	}
	return c.kern().Prof.Cycles(us)
}

// sampleRTT feeds the estimator from segments this ACK newly covers,
// skipping retransmitted ones (Karn's rule: an ACK for a retransmitted
// segment is ambiguous about which transmission it acknowledges).
func (c *Conn) sampleRTT(ack uint32) {
	sample := sim.Time(-1)
	for i := range c.rtxq {
		r := &c.rtxq[i]
		if r.rexmitted {
			continue
		}
		end := r.seq + uint32(len(r.data))
		if r.flags&(SYN|FIN) != 0 {
			end++
		}
		if !seqLE(end, ack) {
			continue
		}
		if rtt := c.now() - r.sentAt; rtt > sample {
			sample = rtt
		}
	}
	if sample < 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if minv := c.minRTO(); rto < minv {
		rto = minv
	}
	if maxv := c.maxRTO(); rto > maxv {
		rto = maxv
	}
	c.rto = rto
}

// teardown closes the connection after an unrecoverable failure: the error
// surfaces to every blocked caller, all timers are cleared, and the fast
// path (which predicts only in ESTABLISHED) stops accepting segments.
func (c *Conn) teardown(err error) {
	c.err = err
	c.state = Closed
	for i := range c.rtxq {
		c.release(&c.rtxq[i])
	}
	c.rtxq = nil
	c.ackDue = false
	c.ackDeadline = 0
	c.scratchSeg = aegis.Segment{}
}

// retransmit re-emits one segment from the queue.
func (c *Conn) retransmit(r *rtxSeg) {
	p := c.owner()
	t0 := c.now()
	p.Compute(c.Costs.Output)
	h := Header{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: r.seq, Flags: r.flags, Window: uint16(c.advertisedWindow()),
	}
	if h.Flags&ACK != 0 || c.state >= Established {
		h.Flags |= ACK
		h.Ack = c.rcvNxt
	}
	var acc uint32
	if c.Cfg.Checksum {
		p.Compute(c.Costs.CksumFixed)
		acc = link.CksumData(0, r.data)
	}
	c.emit(&h, r.data, acc, "tcp rexmit output", t0)
}

// lockTCB marks the TCB busy so the downloaded handler aborts rather than
// racing the library (Section V-B's second constraint).
func (c *Conn) lockTCB()   { c.tcbLocked = true }
func (c *Conn) unlockTCB() { c.tcbLocked = false }

// input processes one received IP datagram through the full state machine.
func (c *Conn) input(d ip.Dgram) {
	p := c.owner()
	c.lockTCB()
	defer c.unlockTCB()
	c.SegsIn++

	var hdr [HeaderLen]byte
	raw := hdr[:min(d.PayloadLen(), HeaderLen)]
	d.Frame.Bytes(raw, d.Off, len(raw))
	h, dataOff, err := Parse(raw)
	if err != nil || d.Hdr.Proto != ip.ProtoTCP || h.DstPort != c.localPort {
		c.St.Release(d)
		return
	}
	plen := d.PayloadLen() - dataOff

	// Header prediction (the paper: "except during connection set up and
	// tear down, all segments were processed by the TCP header-prediction
	// code"): in ESTABLISHED, an expected segment with only ACK|PSH set
	// takes the fast path.
	predicted := c.state == Established &&
		h.Flags&^(ACK|PSH) == 0 && h.Flags&ACK != 0 &&
		h.Seq == c.rcvNxt && seqLE(h.Ack, c.sndNxt)
	t0 := c.now()
	if predicted {
		c.PredictHits++
		p.Compute(c.Costs.Predict)
	} else {
		c.PredictMisses++
		p.Compute(c.Costs.Input)
	}
	c.traceSpan("tcp input", t0)

	if c.Cfg.Checksum && !c.verifyChecksum(d, &h, dataOff, plen) {
		c.BadChecksum++
		c.St.Release(d)
		return
	}
	if c.slowQueued > 0 {
		c.slowQueued--
	}

	if h.Flags&RST != 0 {
		c.err = fmt.Errorf("tcp: connection reset")
		c.state = Closed
		c.St.Release(d)
		return
	}

	switch c.state {
	case SynSent:
		if h.Flags&(SYN|ACK) == SYN|ACK && h.Ack == c.iss+1 {
			c.irs = h.Seq
			c.rcvNxt = h.Seq + 1
			c.sndUna = h.Ack
			c.sndWnd = int(h.Window)
			c.sndWl1, c.sndWl2 = h.Seq, h.Ack
			c.state = Established
			c.dropAcked()
			c.sendAck()
		}
		c.St.Release(d)
		return
	case Listen:
		if h.Flags&SYN != 0 {
			c.remoteIP = d.Hdr.Src
			c.remotePort = h.SrcPort
			c.irs = h.Seq
			c.rcvNxt = h.Seq + 1
			c.sndUna, c.sndNxt = c.iss, c.iss
			c.sndWnd = int(h.Window)
			c.sndWl1, c.sndWl2 = h.Seq, h.Ack
			c.state = SynRcvd
			c.sendSegment(SYN|ACK, c.iss, nil, 0, true)
			c.sndNxt = c.iss + 1
		}
		c.St.Release(d)
		return
	case SynRcvd:
		if h.Flags&ACK != 0 && h.Ack == c.iss+1 {
			c.sndUna = h.Ack
			c.sndWnd = int(h.Window)
			c.sndWl1, c.sndWl2 = h.Seq, h.Ack
			c.state = Established
			c.dropAcked()
			// The handshake ACK may carry data; fall through.
		} else {
			c.St.Release(d)
			return
		}
	}

	// ESTABLISHED and later: ACK processing.
	if h.Flags&ACK != 0 {
		c.processAck(h.Seq, h.Ack, int(h.Window))
	}

	// Data acceptance: in-order only (the paper's library keeps messages
	// in order; anything else is dropped and retransmitted).
	if plen > 0 {
		switch {
		case h.Seq == c.rcvNxt && c.rxqBytes+plen <= c.Cfg.Window:
			c.acceptData(d, dataOff, plen)
			d = ip.Dgram{} // retained in rxq/hring; do not release below
		default:
			// Out of order or over window: dup-ACK immediately.
			c.sendAck()
		}
	}

	// FIN processing.
	if h.Flags&FIN != 0 && seqLE(h.Seq+uint32(plen), c.rcvNxt) {
		c.rcvNxt = h.Seq + uint32(plen) + 1
		c.peerClosed = true
		switch c.state {
		case Established:
			c.state = CloseWait
		case FinWait1:
			if c.sndUna == c.sndNxt {
				c.state = TimeWait
			} else {
				c.state = Closing
			}
		case FinWait2:
			c.state = TimeWait
		}
		c.sendAck()
	}

	if d.Frame.Len() > 0 {
		c.St.Release(d)
	}
}

// verifyChecksum validates the segment's end-to-end checksum, charging the
// traversal over header+payload in the receive buffer.
func (c *Conn) verifyChecksum(d ip.Dgram, h *Header, dataOff, plen int) bool {
	p := c.owner()
	t0 := c.now()
	p.Compute(c.Costs.CksumFixed)
	seglen := dataOff + plen
	acc := ip.PseudoCksum(d.Hdr.Src, d.Hdr.Dst, ip.ProtoTCP, seglen)
	// Traversal over the segment where it lies (uncached after DMA).
	acc += link.CksumFromFrame(p, d.Frame, d.Off, seglen)
	c.traceSpan("tcp cksum verify", t0)
	return link.FoldCksum(acc) == 0xffff
}

// acceptData queues in-order payload for Read.
func (c *Conn) acceptData(d ip.Dgram, dataOff, plen int) {
	c.rcvNxt += uint32(plen)
	if c.Cfg.Mode != ModeUser {
		// Handler mode: the library's slow path places data in the same
		// ring the handler uses, keeping one ordered stream.
		if c.hrTail-c.hrHead+plen <= c.Cfg.Window {
			c.copyIntoHring(d, dataOff, plen)
		}
		c.St.Release(d)
	} else {
		c.rxq = append(c.rxq, rseg{d: d, off: dataOff, n: plen})
		c.rxqBytes += plen
	}
	c.unacked += plen
	c.maybeAck()
}

// copyIntoHring copies payload into the handler ring (library slow path in
// handler mode), charging a copy pass.
func (c *Conn) copyIntoHring(d ip.Dgram, dataOff, plen int) {
	p := c.owner()
	w := c.Cfg.Window
	pos := c.hrTail % w
	first := min(plen, w-pos)
	link.CopyFromFrame(p, d.Frame, d.Off+dataOff, c.hring.Base+uint32(pos), first, false)
	if plen > first {
		link.CopyFromFrame(p, d.Frame, d.Off+dataOff+first, c.hring.Base, plen-first, false)
	}
	c.hrTail += plen
}

// maybeAck applies the delayed-ACK policy: piggyback if the application
// writes soon, force an ACK after enough data, otherwise arm the timer.
func (c *Conn) maybeAck() {
	if c.unacked >= 2*c.Cfg.MSS {
		c.sendAck()
		return
	}
	if c.unacked > 0 && !c.ackDue {
		c.ackDue = true
		c.ackDeadline = c.now() + c.kern().Prof.Cycles(c.Cfg.AckDelayUs)
	}
}

// processAck advances the send side.
func (c *Conn) processAck(seq, ack uint32, wnd int) {
	if seqLT(c.sndUna, ack) && seqLE(ack, c.sndNxt) {
		c.sampleRTT(ack)
		c.sndUna = ack
		c.dropAcked()
		if c.state == FinWait1 && c.sndUna == c.finSeq+1 {
			c.state = FinWait2
		}
		if c.state == Closing && c.sndUna == c.finSeq+1 {
			c.state = TimeWait
		}
		if c.state == LastAck && c.sndUna == c.finSeq+1 {
			c.state = Closed
		}
	}
	c.updateWindow(seq, ack, wnd)
}

// updateWindow applies the RFC 793 window-update guard (SND.WL1/WL2):
// only a segment at least as recent as the last one that changed the
// window may change it again. Without the guard a reordered stale ACK
// can regress sndWnd — in the worst case to zero with an empty
// retransmission queue, which deadlocks the sender because a pure
// window-opening ACK is never retransmitted.
func (c *Conn) updateWindow(seq, ack uint32, wnd int) {
	if seqLT(c.sndWl1, seq) || (c.sndWl1 == seq && seqLE(c.sndWl2, ack)) {
		c.sndWnd = wnd
		c.sndWl1, c.sndWl2 = seq, ack
		if wnd > 0 {
			c.persistDeadline, c.persistRTO = 0, 0
		}
	}
}

// sendWindowProbe emits one byte of already-acknowledged data (seq
// SND.UNA-1). The peer rejects it as out of order and answers with a
// duplicate ACK carrying its current window, breaking a zero-window
// deadlock whose window-opening ACK was lost or discarded as stale.
func (c *Conn) sendWindowProbe() {
	a, err := c.scratch(1)
	if err != nil {
		c.err = err
		return
	}
	c.sendSegment(ACK, c.sndUna-1, &a, 1, false)
}

// dropAcked removes fully acknowledged segments from the rtx queue.
func (c *Conn) dropAcked() {
	out := c.rtxq[:0]
	for _, r := range c.rtxq {
		end := r.seq + uint32(len(r.data))
		if r.flags&(SYN|FIN) != 0 {
			end++
		}
		if !seqLE(end, c.sndUna) {
			out = append(out, r)
		} else {
			c.release(&r)
		}
	}
	c.rtxq = out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// -------------------------------------------------------------------
// Read
// -------------------------------------------------------------------

// Available reports buffered readable bytes.
func (c *Conn) Available() int {
	if c.Cfg.Mode != ModeUser {
		return c.hrTail - c.hrHead
	}
	return c.rxqBytes
}

// Read copies up to max bytes of stream data into the application buffer
// at dst, blocking until at least one byte (or EOF) is available. This is
// the "traditional read interface" copy of Section IV-D; handler modes
// consume from the handler ring without a further copy.
func (c *Conn) Read(dst uint32, maxBytes int) (int, error) {
	if maxBytes <= 0 {
		return 0, fmt.Errorf("tcp: Read with non-positive max %d", maxBytes)
	}
	p := c.owner()
	t0b := c.now()
	p.Compute(c.Costs.Boundary)
	c.traceSpan("tcp boundary", t0b)
	for c.Available() == 0 {
		if c.err != nil {
			return 0, c.err
		}
		if c.peerClosed || c.state == Closed {
			return 0, fmt.Errorf("tcp: EOF")
		}
		c.waitEvent(0)
	}
	if c.Cfg.Mode != ModeUser {
		return c.readHring(dst, maxBytes)
	}

	read := 0
	for read < maxBytes && len(c.rxq) > 0 {
		s := &c.rxq[0]
		n := min(maxBytes-read, s.n-s.read)
		c.lockTCB()
		if c.Cfg.InPlace {
			// The application uses the data where it landed; surface it
			// at dst for API uniformity (bookkeeping cost only).
			s.d.Frame.Bytes(c.kern().Bytes(dst+uint32(read), n), s.d.Off+s.off+s.read, n)
			p.Compute(40)
		} else {
			// The "traditional read interface" copy into application
			// data structures.
			link.CopyFromFrame(p, s.d.Frame, s.d.Off+s.off+s.read, dst+uint32(read), n, false)
		}
		s.read += n
		read += n
		c.rxqBytes -= n
		if s.read == s.n {
			c.St.Release(s.d)
			c.rxq = c.rxq[:copy(c.rxq, c.rxq[1:])] // shift down: the next append reuses the array
		}
		c.unlockTCB()
	}
	return read, nil
}

// readHring consumes from the handler-filled ring: bookkeeping only (the
// integrated DILP traversal already placed the bytes).
func (c *Conn) readHring(dst uint32, maxBytes int) (int, error) {
	p := c.owner()
	c.lockTCB()
	defer c.unlockTCB()
	avail := c.hrTail - c.hrHead
	n := min(avail, maxBytes)
	w := c.Cfg.Window
	pos := c.hrHead % w
	first := min(n, w-pos)
	// The application uses the data in place; we surface it at dst for
	// API uniformity with an uncharged view copy (bookkeeping only).
	copy(c.kern().Bytes(dst, first), c.kern().Bytes(c.hring.Base+uint32(pos), first))
	if n > first {
		copy(c.kern().Bytes(dst+uint32(first), n-first), c.kern().Bytes(c.hring.Base, n-first))
	}
	p.Compute(60) // consume-pointer update
	c.hrHead += n
	return n, nil
}

// ReadFull reads exactly n bytes into dst.
func (c *Conn) ReadFull(dst uint32, n int) error {
	got := 0
	for got < n {
		m, err := c.Read(dst+uint32(got), n-got)
		if err != nil {
			return err
		}
		got += m
	}
	return nil
}

// -------------------------------------------------------------------
// Close
// -------------------------------------------------------------------

// Close sends FIN and completes the shutdown handshake.
func (c *Conn) Close() error {
	p := c.owner()
	t0b := c.now()
	p.Compute(c.Costs.Boundary)
	c.traceSpan("tcp boundary", t0b)
	switch c.state {
	case Established:
		c.state = FinWait1
	case CloseWait:
		c.state = LastAck
	default:
		c.state = Closed
		return nil
	}
	c.finSeq = c.sndNxt
	c.sendSegment(FIN|ACK, c.sndNxt, nil, 0, true)
	c.sndNxt++
	deadline := c.now() + c.kern().Prof.Cycles(4*c.Cfg.RTOUs)
	for c.state != Closed && c.state != TimeWait && c.err == nil {
		if c.now() >= deadline {
			break
		}
		c.waitEvent(deadline)
	}
	if c.state == TimeWait {
		c.state = Closed
	}
	c.state = Closed
	c.scratchSeg = aegis.Segment{}
	return c.err
}
