// Package netdev models the two network devices of the paper's testbed
// (Section IV-A): a 155-Mb/s AN2 ATM network (Digital's AN2 switch) and a
// 10-Mb/s Ethernet.
//
// The model is a link/switch with three parameters per network: payload
// bandwidth, a fixed per-message hardware latency (board + switch + DMA),
// and the frame overhead. Calibration anchors come straight from the paper:
// the AN2's hardware round-trip overhead is ~96 us and its maximum
// achievable per-link payload bandwidth ~16.8 MB/s; the Ethernet's raw
// round trip is backed out of Table I.
//
// Frames travel as leased PacketBufs drawn from the switch's BufPool (see
// buf.go for the ownership rules); the steady-state wire path allocates
// nothing.
//
// Device idiosyncrasies that the paper's DILP back-ends must cope with —
// the AN2's DMA-anywhere receive with per-VC notification rings, the
// Ethernet's bounded receive pools and its striping DMA engine (N bytes
// scattered into 2N as alternating 16-byte data/pad lines) — are modeled in
// the kernel drivers (package aegis); this package is the wire.
package netdev

import (
	"fmt"
	"hash/crc32"
	"strconv"

	"ashs/internal/mach"
	"ashs/internal/obs"
	"ashs/internal/pages"
	"ashs/internal/sim"
)

// FrameCheck computes the frame check sequence the boards use.
func FrameCheck(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// LinkConfig describes a network technology.
type LinkConfig struct {
	Name string
	// BytesPerUs is the payload serialization rate.
	BytesPerUs float64
	// FixedOneWayUs is per-message fixed hardware latency in microseconds
	// (board processing, switch transit, DMA setup at both ends). It is
	// pipelined: it delays delivery but does not pace back-to-back sends.
	FixedOneWayUs float64
	// PerPacketUs is per-packet transmit-path occupancy beyond
	// serialization (segmentation-and-reassembly, descriptor handling).
	// It paces trains: effective bandwidth at size n is
	// n / (n/BytesPerUs + PerPacketUs).
	PerPacketUs float64
	// MaxFrame is the largest payload one Transmit may carry.
	MaxFrame int
	// MinWireBytes is the minimum on-wire size (Ethernet's 64-byte frame).
	MinWireBytes int
	// FrameOverhead is header/trailer bytes added on the wire.
	FrameOverhead int
}

// AN2Config is the calibrated AN2 model: 155 Mb/s line rate with ~16.8 MB/s
// achievable payload bandwidth and 48 us fixed one-way hardware cost
// (96 us round trip, Section IV-C).
func AN2Config() LinkConfig {
	return LinkConfig{
		Name:          "AN2",
		BytesPerUs:    16.8,
		FixedOneWayUs: 37.6,
		PerPacketUs:   10.4, // calibrated: 16.11 MB/s at 4-KB packets (Fig. 3)
		MaxFrame:      16 * 1024,
		FrameOverhead: 8, // cell header amortization, modeled coarsely
	}
}

// EthernetConfig is the calibrated 10-Mb/s Ethernet model. The fixed cost
// is backed out of Table I's 309-us user-level round trip less the same
// software overhead measured on AN2.
func EthernetConfig() LinkConfig {
	return LinkConfig{
		Name:          "Ethernet",
		BytesPerUs:    1.25,
		FixedOneWayUs: 60,
		PerPacketUs:   1, // inter-frame gap + descriptor handling
		MaxFrame:      1514,
		MinWireBytes:  64,
		FrameOverhead: 18, // 14 header + 4 FCS
	}
}

// Switch is a link shared by a set of ports. Sends serialize per sender
// (each port owns its transmit path) and arrive after serialization plus
// the fixed hardware latency. There is no loss unless an injector drops.
type Switch struct {
	Eng  *sim.Engine
	Prof *mach.Profile
	Cfg  LinkConfig

	// Pool recycles the PacketBufs frames travel in. Every buffer leased
	// from it must come back: a drained simulation ends with
	// Pool.InUse() == 0 (the buffer-lease leak invariant).
	Pool *BufPool

	// ports holds every attachment by value, indexed by address: a
	// million-port switch is a thousand page objects, not a million.
	ports pages.Array[Port]

	// Fault injection for tests: called per packet before delivery.
	// Return false to drop. May mutate the packet in place (corruption
	// tests); the injector does not own the reference.
	Inject func(p *PacketBuf) bool

	// Obs is the wire's observability plane. nil (the default) disables
	// tracing and metrics at zero cost; see internal/obs.
	Obs *obs.Plane

	// Statistics. Redelivered counts frames an injector re-introduced
	// (duplicates, held-back reorders) via Redeliver. Refused counts frames
	// Transmit turned away (oversize, no such port): senders on the
	// receive path cannot act on its error, so the loss is recorded here.
	// Unreceived counts delivered frames no receiver took (a unicast to a
	// port without one, a broadcast no other port has one for), and Fanout
	// a broadcast's receptions past its first; a world is far from 2^32 of
	// either, and 32 bits keep the switch in its size class.
	Sent, Delivered, Dropped, Redelivered, Refused uint64
	Unreceived, Fanout                             uint32

	// deliverFn is the one bound delivery callback every in-flight frame
	// is scheduled through (ScheduleArgAt), so transmit builds no
	// per-packet closure.
	deliverFn func(any)
}

// Received is the number of frames handed to a port's receiver, a
// broadcast once per port it reaches: the receivers' own fates must sum
// to it.
func (s *Switch) Received() uint64 {
	return s.Delivered + uint64(s.Fanout) - uint64(s.Unreceived)
}

// NewSwitch builds a switch over engine eng with profile prof.
func NewSwitch(eng *sim.Engine, prof *mach.Profile, cfg LinkConfig) *Switch {
	s := &Switch{Eng: eng, Prof: prof, Cfg: cfg, Pool: NewBufPool(cfg.MaxFrame)}
	s.deliverFn = s.deliverEvent
	return s
}

// LeaseData leases a buffer from the switch's pool holding a copy of
// data. The caller owns it until it hands it to Transmit/Redeliver or
// Releases it.
func (s *Switch) LeaseData(data []byte) *PacketBuf {
	b := s.Pool.Lease()
	b.SetData(data)
	return b
}

// Port is one NIC attachment.
type Port struct {
	sw          *Switch
	addr        int
	rx          func(pkt *PacketBuf)
	txBusyUntil sim.Time
}

// NewPort attaches a new NIC to the switch and returns it. Addresses are
// issued consecutively from 0.
func (s *Switch) NewPort() *Port {
	return s.ports.Push(Port{sw: s, addr: s.ports.Len()})
}

// NewPorts attaches n ports that share the receiver rx and returns the
// address of the first; the others follow it consecutively (see Port).
func (s *Switch) NewPorts(n int, rx func(pkt *PacketBuf)) int {
	first := s.ports.Len()
	for a := first; a < first+n; a++ {
		s.ports.Push(Port{sw: s, addr: a, rx: rx})
	}
	return first
}

// Port returns the port at address addr, which must be attached.
func (s *Switch) Port(addr int) *Port { return s.ports.At(addr) }

// Addr reports this port's address on the switch.
func (p *Port) Addr() int { return p.addr }

// SetReceiver installs the function invoked (in event context) when a
// packet's DMA into this port completes. The receiver borrows the buffer
// for the duration of the call; it must copy what it keeps longer. While
// it runs, pkt.Dst is this port's address, broadcast or not, so one
// receiver may serve many ports.
func (p *Port) SetReceiver(fn func(pkt *PacketBuf)) { p.rx = fn }

// wireBytes is the on-the-wire size of a payload.
func (s *Switch) wireBytes(n int) int {
	w := n + s.Cfg.FrameOverhead
	if w < s.Cfg.MinWireBytes {
		w = s.Cfg.MinWireBytes
	}
	return w
}

// SerializeCycles is the transmit-path occupancy for a payload of n bytes:
// serialization plus the fixed per-packet overhead.
func (s *Switch) SerializeCycles(n int) sim.Time {
	us := float64(s.wireBytes(n))/s.Cfg.BytesPerUs + s.Cfg.PerPacketUs
	return s.Prof.Cycles(us)
}

// FixedCycles is the fixed one-way hardware latency.
func (s *Switch) FixedCycles() sim.Time {
	return s.Prof.Cycles(s.Cfg.FixedOneWayUs)
}

// Broadcast is the destination address that delivers to every port except
// the sender (shared-medium Ethernet semantics).
const Broadcast = -1

// NumPorts is the number of attached ports; their addresses are
// 0..NumPorts()-1.
func (s *Switch) NumPorts() int { return s.ports.Len() }

// Transmit queues pkt for transmission from this port, consuming the
// caller's reference — on success and on error alike, the caller must
// not touch pkt afterwards. Delivery happens FixedOneWay after
// serialization completes; back-to-back sends from one port pipeline
// behind each other, so bulk trains run at link bandwidth.
// Dst == Broadcast delivers to every other port.
func (p *Port) Transmit(pkt *PacketBuf) error {
	s := p.sw
	if pkt.Len() > s.Cfg.MaxFrame {
		n := pkt.Len()
		pkt.Release()
		s.Refused++
		return fmt.Errorf("%s: frame of %d bytes exceeds max %d", s.Cfg.Name, n, s.Cfg.MaxFrame)
	}
	if pkt.Dst != Broadcast && (pkt.Dst < 0 || pkt.Dst >= s.ports.Len()) {
		dst := pkt.Dst
		pkt.Release()
		s.Refused++
		return fmt.Errorf("%s: no port %d", s.Cfg.Name, dst)
	}
	pkt.Src = p.addr
	s.Sent++

	start := s.Eng.Now()
	if p.txBusyUntil > start {
		start = p.txBusyUntil
	}
	doneSerializing := start + s.SerializeCycles(pkt.Len())
	p.txBusyUntil = doneSerializing
	deliverAt := doneSerializing + s.FixedCycles()

	if o := s.Obs; o.Enabled() {
		lane := "port " + strconv.Itoa(p.addr)
		n := strconv.Itoa(pkt.Len())
		o.Span(s.Cfg.Name, lane, "wire", "serialize n="+n, start,
			doneSerializing-start)
		o.Span(s.Cfg.Name, lane, "wire", "flight n="+n, doneSerializing,
			deliverAt-doneSerializing)
	}

	s.Eng.ScheduleArgAt(deliverAt, s.deliverFn, pkt)
	return nil
}

// deliverEvent is the wire's arrival callback: it runs the injector,
// fans the frame out, and returns the in-flight reference to the pool.
// The injector is the one thing that can damage a frame, so a frame is
// sealed here, just before the injector sees it, and nowhere else: the
// switch has owned the buffer since Transmit, so the check is the one the
// transmitting board would have computed.
func (s *Switch) deliverEvent(a any) {
	pkt := a.(*PacketBuf)
	if s.Inject != nil {
		pkt.Seal()
		if !s.Inject(pkt) {
			s.Dropped++
			if o := s.Obs; o.Enabled() {
				o.Instant(s.Cfg.Name, "port "+strconv.Itoa(pkt.Src), "fault",
					"injected drop", s.Eng.Now())
			}
			pkt.Release()
			return
		}
	}
	s.deliver(pkt)
	pkt.Release()
}

// deliver fans a packet out to its destination port(s) right now.
// Unicast is O(1) in the port count: a million-endpoint switch must not
// walk a million ports per packet. Receivers borrow the buffer for the
// callback; the caller still owns its reference afterwards. A broadcast
// frame carries each receiving port's address in Dst while that port's
// receiver runs, and Broadcast again once the fan-out is done.
func (s *Switch) deliver(pkt *PacketBuf) {
	s.Delivered++
	if pkt.Dst != Broadcast {
		if pkt.Dst >= 0 && pkt.Dst < s.ports.Len() {
			if dst := s.ports.At(pkt.Dst); dst.rx != nil {
				dst.rx(pkt)
				return
			}
		}
		s.Unreceived++
		return
	}
	reached := uint32(0)
	for i, n := 0, s.ports.Len(); i < n; i++ {
		if dst := s.ports.At(i); i != pkt.Src && dst.rx != nil {
			pkt.Dst = i
			reached++
			dst.rx(pkt)
		}
	}
	if reached == 0 {
		s.Unreceived++
	} else {
		s.Fanout += reached - 1
	}
	pkt.Dst = Broadcast
}

// Clone leases a copy of pkt — payload, addressing and frame check — for
// an injector that holds a frame back or duplicates it (see Redeliver).
func (s *Switch) Clone(pkt *PacketBuf) *PacketBuf {
	cp := s.LeaseData(pkt.Bytes())
	cp.Src, cp.Dst, cp.VC, cp.FCS, cp.sealed = pkt.Src, pkt.Dst, pkt.VC, pkt.FCS, pkt.sealed
	return cp
}

// Redeliver hands pkt to its destination port(s) immediately, bypassing
// the injector, consuming the caller's reference. Fault injectors use it
// to re-introduce frames they held back (reordering, delay jitter) or
// cloned (duplication) without the injector seeing its own output again.
func (s *Switch) Redeliver(pkt *PacketBuf) {
	s.Redelivered++
	if o := s.Obs; o.Enabled() {
		o.Instant(s.Cfg.Name, "port "+strconv.Itoa(pkt.Src), "fault",
			"redeliver", s.Eng.Now())
	}
	s.deliver(pkt)
	pkt.Release()
}
