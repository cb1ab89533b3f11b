package aegis

import (
	"fmt"

	"ashs/internal/dpf"
	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// EthBinding is a process's claim on a class of Ethernet frames, expressed
// as a DPF packet filter (Section IV-A: "the Ethernet device is securely
// exported by a packet filter engine").
type EthBinding struct {
	ID      dpf.FilterID
	Owner   *Process
	Ring    *Ring // &ring: binding and ring are one allocation
	Handler MsgHandler
	Upcall  *Upcall

	// Shed counts frames admission control refused for this binding: the
	// filter matched, but the ring stood at its high watermark (see
	// Ring.HighWater), so the demultiplexor dropped the frame before it
	// consumed a pool buffer. Per-filter, so an overloaded endpoint's
	// shedding is attributable to it rather than folded into a global
	// drop count.
	Shed uint64

	ether *EthernetIf
	ring  Ring
}

// EthernetIf is the Ethernet driver for one host. Unlike the AN2, the
// device's receive buffers are a limited kernel-owned pool ("the network
// buffers available to the device to receive into are limited, and
// therefore a message must not stay in them very long... at least one copy
// is always necessary"), and its DMA engine *stripes* an N-byte packet
// into a 2N-byte buffer as alternating 16-byte data and pad lines
// (Section III-C).
type EthernetIf struct {
	K    *Kernel
	Port *netdev.Port
	Sw   *netdev.Switch

	engine *dpf.Engine
	// bindings is indexed by FilterID (the engine issues ids densely and
	// never reuses one); nil once unbound.
	bindings []*EthBinding

	bufs     []Segment // striped kernel receive buffers (2x MTU each)
	freeBufs bufFIFO

	// InjectFault, when set, is consulted once per arriving frame so a
	// fault plane can model device-level failures.
	InjectFault func(pkt *netdev.PacketBuf) DeviceFault

	// DroppedNoFilter and DroppedNoBuf count load-induced losses (no
	// matching filter; genuine pool exhaustion). LoadSheds counts frames
	// refused by ring high-watermark admission control (summed over the
	// per-binding Shed counters). CRCDrops counts frames the board's
	// frame check rejected. The Injected* counters record failures forced
	// by the fault plane, and only those: a fault-injected ring or pool
	// drop no longer bumps the load-induced counters, so overload
	// analysis can tell shed-because-saturated from dropped-by-chaos.
	DroppedNoFilter     uint64
	DroppedNoBuf        uint64
	LoadSheds           uint64
	CRCDrops            uint64
	InjectedRingDrops   uint64
	InjectedPoolDrops   uint64
	InjectedTruncations uint64

	// RxFrames counts frames accepted by a filter; DemuxCycles accumulates
	// the modeled DPF classification cost across them, so an experiment can
	// report demux cycles per message as endpoints multiply.
	RxFrames    uint64
	DemuxCycles sim.Time
}

// EthRxBuffers is the default size of the device's receive pool.
const EthRxBuffers = 32

// StripeChunk is the data-line size of the striping DMA engine.
const StripeChunk = 16

// NewEthernet attaches an Ethernet interface to host k on switch sw with
// the default receive pool.
func NewEthernet(k *Kernel, sw *netdev.Switch) *EthernetIf {
	return NewEthernetPool(k, sw, EthRxBuffers)
}

// NewEthernetPool attaches an Ethernet interface with an explicit receive
// pool size. Each buffer is 2×(MaxFrame+16) bytes (the striping DMA needs
// double width), so fan-in testbeds with hundreds of client hosts shrink
// the per-client pool to fit small kernels.
func NewEthernetPool(k *Kernel, sw *netdev.Switch, nbufs int) *EthernetIf {
	e := &EthernetIf{
		K: k, Port: sw.NewPort(), Sw: sw,
		engine: dpf.NewEngine(),
	}
	bufSize := 2 * (sw.Cfg.MaxFrame + StripeChunk)
	e.freeBufs.init(nbufs)
	for i := 0; i < nbufs; i++ {
		// Boot-time device pool on a fresh host: exhaustion here is a
		// misconfigured testbed, not guest misbehavior, so a panic is the
		// right failure mode.
		base, err := k.AllocPhys(bufSize, fmt.Sprintf("eth-rx-%d", i))
		if err != nil {
			panic(err)
		}
		e.bufs = append(e.bufs, Segment{Base: base, Len: uint32(bufSize)})
	}
	e.Port.SetReceiver(e.receive)
	return e
}

// Addr is this host's address on the Ethernet segment.
func (e *EthernetIf) Addr() int { return e.Port.Addr() }

// MaxFrame is the largest payload one frame can carry.
func (e *EthernetIf) MaxFrame() int { return e.Sw.Cfg.MaxFrame }

// BindFilter installs filter f for process p. When the DPF engine accepts
// a frame for f, it is delivered to this binding.
func (e *EthernetIf) BindFilter(p *Process, f *dpf.Filter) (*EthBinding, error) {
	id, err := e.engine.Insert(f)
	if err != nil {
		return nil, err
	}
	b := &EthBinding{ID: id, Owner: p, ether: e, ring: Ring{k: e.K}}
	b.Ring = &b.ring
	for len(e.bindings) <= int(id) {
		e.bindings = append(e.bindings, nil)
	}
	e.bindings[id] = b
	return b, nil
}

// TrieDepth reports the DPF trie's deepest installed path (see
// dpf.Engine.Depth): the structural bound one demux walk pays no matter
// how many filters are installed.
func (e *EthernetIf) TrieDepth() int { return e.engine.Depth() }

// Filters reports the number of installed filters.
func (e *EthernetIf) Filters() int { return e.engine.Len() }

// TrieCensus reports the DPF engine's storage (see dpf.Engine.Census).
func (e *EthernetIf) TrieCensus() dpf.Census { return e.engine.Census() }

// UnbindFilter removes a binding. It refuses a binding that is not
// currently installed on this interface — one from another interface, or
// one already unbound — rather than remove whatever filter this engine
// issued the same numeric id.
func (e *EthernetIf) UnbindFilter(b *EthBinding) error {
	if b.ether != e || int(b.ID) >= len(e.bindings) || e.bindings[b.ID] != b {
		return fmt.Errorf("aegis: filter %d is not bound on %s", b.ID, e.K.Name)
	}
	e.bindings[b.ID] = nil
	return e.engine.Remove(b.ID)
}

// Stripe writes frame into buf in the device's striped layout: 16 bytes of
// data, 16 bytes of padding, repeating.
func Stripe(buf, frame []byte) {
	for off := 0; off < len(frame); off += StripeChunk {
		end := off + StripeChunk
		if end > len(frame) {
			end = len(frame)
		}
		copy(buf[2*off:], frame[off:end])
	}
}

// Unstripe reads n data bytes back out of a striped buffer.
func Unstripe(dst, buf []byte, n int) {
	for off := 0; off < n; off += StripeChunk {
		end := off + StripeChunk
		if end > n {
			end = n
		}
		copy(dst[off:end], buf[2*off:])
	}
}

// StripedIndex maps a data offset to its offset inside a striped buffer.
func StripedIndex(off int) int {
	return 2*(off/StripeChunk)*StripeChunk + off%StripeChunk
}

// receive is the frame arrival path. The frame buffer is borrowed from
// the wire for the duration of the call: the striping DMA copies the
// payload into a kernel buffer and the driver never retains pkt.
func (e *EthernetIf) receive(pkt *netdev.PacketBuf) {
	// The controller verifies the frame check sequence before raising any
	// interrupt: frames damaged on the wire never reach software.
	data := pkt.Bytes()
	if pkt.FCS != netdev.FrameCheck(data) {
		e.CRCDrops++
		return
	}
	intr := e.K.interruptEntry()
	prof := e.K.Prof

	var df DeviceFault
	if e.InjectFault != nil {
		df = e.InjectFault(pkt)
	}
	if df.TruncateTo > 0 && df.TruncateTo < len(data) {
		// Truncated DMA: only a prefix of the frame lands in memory.
		e.InjectedTruncations++
		data = data[:df.TruncateTo]
	}

	// Demultiplex with the compiled DPF trie.
	id, demuxCycles, ok := e.engine.Demux(data)
	if !ok {
		e.DroppedNoFilter++
		return
	}
	b := e.bindings[id]
	e.RxFrames++
	e.DemuxCycles += demuxCycles
	if df.DropRing {
		// Injected notification-ring overflow: the arrival is lost after
		// classification, before any buffer is taken.
		e.InjectedRingDrops++
		return
	}
	if df.DropPool {
		// Injected receive-pool exhaustion: nowhere to DMA the frame.
		e.InjectedPoolDrops++
		return
	}
	if hw := b.Ring.HighWater; hw > 0 && b.Ring.Len() >= hw {
		// Shed at demux: the binding's ring stands at its high watermark,
		// so admission control refuses the frame before it costs a pool
		// buffer, a DMA, or any handler cycles. The sender sees a loss
		// and backs off; the frames already queued stay serviceable.
		b.Shed++
		e.LoadSheds++
		if o := e.K.Obs; o.Enabled() {
			o.Inc("aegis/" + e.K.Name + "/ring_shed")
		}
		return
	}
	if e.freeBufs.len() == 0 {
		e.DroppedNoBuf++
		return
	}
	bufIdx := e.freeBufs.pop()
	seg := e.bufs[bufIdx]

	// Striping DMA into the kernel buffer, then the driver's software
	// cache flush over the landing area.
	n := len(data)
	buf := e.K.Bytes(seg.Base, int(seg.Len))
	Stripe(buf, data)
	e.K.Cache.FlushRange(seg.Base, 2*n)

	mc := e.K.acquireMsgCtx()
	mc.K, mc.Owner, mc.Src = e.K, b.Owner, pkt.Src
	mc.ether, mc.ring, mc.Striped = e, b.Ring, true
	mc.Entry = RingEntry{Addr: seg.Base, Len: n, Src: pkt.Src, BufIndex: bufIdx}
	mc.t0 = e.K.kernStart()
	defer e.K.finishRx(mc)
	o := e.K.Obs
	mc.Charge(intr + sim.Time(prof.DeviceRxService) + demuxCycles)
	o.Span(e.K.Name, "device", "device", "eth rx demux", mc.t0, mc.Cost())
	if o.Enabled() {
		o.Inc("aegis/" + e.K.Name + "/interrupts")
	}

	if b.Handler != nil {
		s0 := mc.When()
		mc.Charge(sim.Time(prof.ASHDispatch))
		o.Span(e.K.Name, "device", "kernel", "ash dispatch", s0, mc.When()-s0)
		if b.Handler.HandleMsg(mc) == DispConsumed {
			mc.commitSends()
			e.freeBufs.push(bufIdx)
			return
		}
		mc.abortSends()
	}
	if b.Upcall != nil {
		if b.Upcall.dispatch(mc) == DispConsumed {
			mc.commitSends()
			e.freeBufs.push(bufIdx)
			return
		}
		mc.abortSends()
	}
	s0 := mc.When()
	mc.Charge(sim.Time(prof.RingUpdateCycles))
	o.Span(e.K.Name, "device", "kernel", "ring deliver", s0, mc.When()-s0)
	mc.pins++
	e.K.Eng.ScheduleArgAt(mc.When(), e.K.ringPushFn, mc)
}

// FreeBuf returns a device buffer to the pool. Device buffers are scarce:
// user code must copy out and free promptly or the device drops frames.
func (e *EthernetIf) FreeBuf(idx int) { e.freeBufs.push(idx) }

// Send transmits a frame from process p (full syscall + device setup).
func (e *EthernetIf) Send(p *Process, dst int, frame []byte) {
	p.Syscall(sim.Time(e.K.Prof.DeviceTxSetup))
	pkt := e.Sw.LeaseData(frame)
	pkt.Dst = dst
	_ = e.Port.Transmit(pkt)
}

// Broadcast transmits one frame heard by every other port (ARP-style).
func (e *EthernetIf) Broadcast(p *Process, frame []byte) {
	e.Send(p, netdev.Broadcast, frame)
}
