package aegis

import (
	"ashs/internal/netdev"
	"ashs/internal/pages"
	"ashs/internal/sim"
)

// NIC is the device-independent core of a network interface: AN2If and
// EthernetIf embed it. The two devices differ in how a frame is
// classified, who owns the receive buffers and how the DMA lays the
// frame out, so each keeps its own front half (its receive function);
// everything after a frame has matched a binding — the admission check,
// the handler/upcall/ring tail, transmission, the counters — is here,
// once, and nothing above this package needs to know which device a
// frame arrived on.
type NIC struct {
	K    *Kernel
	Port *netdev.Port
	Sw   *netdev.Switch

	// InjectFault, when set, is consulted once per arriving frame so a
	// fault plane can model device-level failures.
	InjectFault func(pkt *netdev.PacketBuf) DeviceFault

	// Rx records what became of every frame the wire offered.
	Rx RxStats

	// rings holds the notification rings of this interface's bindings,
	// one slot each, made on a binding's first push or wait.
	rings pages.Array[Ring]
}

// RxStats names each fate of an offered frame once, for both devices, in
// the order the checks run. Every frame ends in exactly one of them:
// the seven drops, or Delivered.
type RxStats struct {
	// CRC counts frames the board's frame check rejected: they never
	// reach software.
	CRC uint64
	// NoMatch counts frames for an unbound circuit, or that no filter
	// accepted.
	NoMatch uint64
	// InjectedRing and InjectedPool count failures forced by the fault
	// plane (notification-ring overflow, receive-pool exhaustion), and
	// only those, so a soak can tell dropped-by-chaos from
	// shed-because-saturated.
	InjectedRing uint64
	InjectedPool uint64
	// Shed counts frames refused by ring high-watermark admission control
	// (the sum of the per-ring Shed counters; see Ring.HighWater).
	Shed uint64
	// NoBuffer counts genuine, load-induced receive-buffer exhaustion.
	NoBuffer uint64
	// TooBig counts frames larger than the circuit's bound buffers (AN2;
	// an Ethernet pool buffer always holds a maximal frame).
	TooBig uint64
	// Delivered counts frames that got a buffer and ran the delivery
	// tail: consumed by a handler or an upcall, or pushed on a ring.
	Delivered uint64

	// Truncated counts frames an injected short DMA cut. It annotates a
	// frame rather than deciding its fate: what is left is still matched,
	// admitted and delivered (or dropped) like any other.
	Truncated uint64
	// BadFrees counts Binding.Free calls refused: an index outside the
	// pool, or a buffer that is not on loan.
	BadFrees uint64
}

// Fates is the number of frames with a fate: every frame the wire handed
// the interface, once.
func (s *RxStats) Fates() uint64 {
	return s.CRC + s.NoMatch + s.InjectedRing + s.InjectedPool + s.Shed + s.NoBuffer + s.TooBig + s.Delivered
}

// DeviceFault is an injected device-level failure for one arriving frame.
// A fault plane installs an InjectFault hook on an interface; the driver
// consults it once per frame and models the requested failure.
type DeviceFault struct {
	// DropRing models notification-ring overflow: the board has no ring
	// entry for the arrival and the frame is lost.
	DropRing bool
	// DropPool models receive-pool exhaustion (the Ethernet's bounded
	// kernel pool, the AN2's per-VC buffers): nowhere to DMA, frame lost.
	DropPool bool
	// TruncateTo > 0 models a truncated DMA: only that many bytes land in
	// memory. The IP layer's length validation catches the damage.
	TruncateTo int
}

// Addr is this host's address on the switch.
func (n *NIC) Addr() int { return n.Port.Addr() }

// Rings reports how many of the interface's bindings have a ring.
func (n *NIC) Rings() int { return n.rings.Len() }

// MaxFrame is the largest payload one frame can carry.
func (n *NIC) MaxFrame() int { return n.Sw.Cfg.MaxFrame }

// Send transmits from process p: the user-level transmission path through
// the full system call interface plus device setup. vc is the AN2 virtual
// circuit; Ethernet ignores it (pass 0).
func (n *NIC) Send(p *Process, dst, vc int, data []byte) {
	p.Syscall(sim.Time(n.K.Prof.DeviceTxSetup))
	n.KernelSend(dst, vc, data)
}

// KernelSend transmits from kernel context (in-kernel endpoints): device
// setup only, no system call.
func (n *NIC) KernelSend(dst, vc int, data []byte) {
	pkt := n.Sw.LeaseData(data)
	pkt.Dst, pkt.VC = dst, vc
	n.transmit(pkt)
}

// transmit puts a leased frame on the wire. A frame the wire refuses
// (oversize, unknown destination) is not the sender's to recover: Transmit
// has already returned the lease and counted it in Switch.Refused.
func (n *NIC) transmit(pkt *netdev.PacketBuf) { _ = n.Port.Transmit(pkt) }

// Binding is a process's demultiplexing point on either device — an AN2
// virtual circuit (Section IV-A) or a DPF packet filter on the Ethernet
// ("the Ethernet device is securely exported by a packet filter engine")
// — with its notification ring and, optionally, a downloaded handler or
// an upcall upstream of the ring. An AN2 circuit's binding is its own
// allocation, an Ethernet filter's a slot in the interface's pages.
type Binding struct {
	// ID is the virtual circuit number or the DPF filter id.
	ID    int
	Owner *Process // nil for in-kernel endpoints

	// Handler and Upcall run at arrival, in that order; a message neither
	// consumes goes on the ring. A KernelRx handler on an AN2 circuit
	// makes it a hardwired in-kernel endpoint.
	Handler MsgHandler
	Upcall  *Upcall

	pool *rxPool // the circuit's own buffers, or the Ethernet's shared pool
	ring *Ring   // nil until the first push or wait
}

// Ring is the binding's notification ring. The first call makes it, so a
// binding whose handler consumes every message never has one.
func (b *Binding) Ring() *Ring {
	if b.ring == nil {
		b.ring = b.pool.nic.rings.Push(Ring{})
	}
	return b.ring
}

// Free returns a receive buffer to the DMA pool ("the application is
// allowed to use those message buffers directly, as long as it eventually
// returns or replaces them"; Ethernet buffers are scarce, so user code
// must copy out and free promptly or the device drops frames). The caller
// pays BufferMgmtCycles separately (user code via Process.Compute,
// handlers via MsgCtx.Charge). The index comes from user level, so it is
// checked like any system call argument: one outside the pool (a
// doorbell's -1) or naming a buffer that is not on loan (a second free)
// is refused and counted, never queued for the next DMA.
func (b *Binding) Free(idx int) {
	q := b.pool
	if idx < 0 || idx >= len(q.onLoan) || !q.onLoan[idx] {
		q.nic.Rx.BadFrees++
		return
	}
	q.onLoan[idx] = false
	q.free[(q.head+q.count)%len(q.free)] = idx
	q.count++
}

// rxPool is a set of receive buffers with a fixed-capacity FIFO of the
// free ones. A buffer is either in the FIFO or on loan, never both, so
// the FIFO cannot outgrow its boot capacity and take/Free allocate
// nothing; buffers come back into service in the order they were freed.
type rxPool struct {
	nic     *NIC
	bufs    []Segment
	striped bool // buffers are 2× wide and filled by the striping DMA
	onLoan  []bool
	free    []int // circular
	head    int
	count   int
}

// init adopts bufs, all free in index order: the boot state of a pool on
// interface nic.
func (q *rxPool) init(nic *NIC, bufs []Segment, striped bool) {
	q.nic, q.bufs, q.striped = nic, bufs, striped
	q.onLoan = make([]bool, len(bufs))
	q.free = make([]int, len(bufs))
	for i := range q.free {
		q.free[i] = i
	}
	q.head, q.count = 0, len(bufs)
}

// peek returns the buffer the next take will lend; the pool must have a
// free buffer (admit has checked).
func (q *rxPool) peek() (int, Segment) {
	i := q.free[q.head]
	return i, q.bufs[i]
}

// take lends out the oldest free buffer.
func (q *rxPool) take() {
	q.onLoan[q.free[q.head]] = true
	q.head = (q.head + 1) % len(q.free)
	q.count--
}

// arrive is how either front half meets a frame: the board checks the
// frame (PacketBuf.Intact) before raising anything (frames damaged on the
// wire never reach software), then the interrupt is taken and the fault
// plane consulted. ok is false when the frame is already dead.
func (n *NIC) arrive(pkt *netdev.PacketBuf) (intr sim.Time, df DeviceFault, ok bool) {
	if !pkt.Intact() {
		n.Rx.CRC++
		return 0, df, false
	}
	intr = n.K.interruptEntry()
	if n.InjectFault != nil {
		df = n.InjectFault(pkt)
	}
	return intr, df, true
}

// admit is the one admission check, run once a frame has matched binding
// b: may it have a receive buffer? Injected exhaustion counts only as
// injected — NoBuffer is reserved for genuine starvation.
func (n *NIC) admit(b *Binding, df DeviceFault) bool {
	r := b.ring
	switch {
	case df.DropPool:
		n.Rx.InjectedPool++
	case r != nil && r.HighWater > 0 && r.Len() >= r.HighWater:
		// Shed at demux: the ring stands at its high watermark, so the
		// arrival is refused before it costs a buffer, a DMA, or any
		// handler cycles. The sender sees a loss and backs off; the frames
		// already queued stay serviceable.
		r.Shed++
		n.Rx.Shed++
	case b.pool.count == 0:
		n.Rx.NoBuffer++
	default:
		return true
	}
	return false
}

// begin opens the receive path for the frame the front half has just
// DMA'd into the buffer entry describes. Whoever calls it must end in
// deliver or consumed, which close the path.
func (n *NIC) begin(b *Binding, entry RingEntry) *MsgCtx {
	n.Rx.Delivered++
	mc := n.K.acquireMsgCtx()
	mc.K, mc.Owner, mc.VC, mc.Src = n.K, b.Owner, entry.VC, entry.Src
	mc.nic, mc.bind, mc.striped = n, b, b.pool.striped
	mc.Entry = entry
	mc.t0 = n.K.kernStart()
	return mc
}

// deliver is the one delivery tail. The front half passes what its own
// stage cost (interrupt, driver service, demultiplexing) and the span to
// book it under; from there "an ASH either consumes the message it is
// given or returns it to the kernel to be handled normally" (Section II):
// handler, then upcall, then the notification ring, with the sends a
// stage queued committed if it consumed the message and released if not.
func (n *NIC) deliver(b *Binding, mc *MsgCtx, rxCycles sim.Time, span string) {
	k, o := n.K, n.K.Obs
	mc.Charge(rxCycles)
	o.Span(k.Name, "device", "device", span, mc.t0, mc.Cost())
	// "ASHs are invoked directly from the AN2 device driver, just after it
	// performs a software cache flush of the message location."
	if b.Handler != nil {
		s0 := mc.When()
		mc.Charge(sim.Time(k.Prof.ASHDispatch))
		o.Span(k.Name, "device", "kernel", "ash dispatch", s0, mc.When()-s0)
		if b.Handler.HandleMsg(mc) == DispConsumed {
			n.consumed(b, mc)
			return
		}
		mc.abortSends()
	}
	if b.Upcall != nil {
		if b.Upcall.dispatch(mc) == DispConsumed {
			n.consumed(b, mc)
			return
		}
		mc.abortSends()
	}
	// Push a ring notification at path-completion time; the push wakes a
	// blocked owner (charging the wake/schedule path).
	s0 := mc.When()
	mc.Charge(sim.Time(k.Prof.RingUpdateCycles))
	o.Span(k.Name, "device", "kernel", "ring deliver", s0, mc.When()-s0)
	mc.pins++
	k.Eng.ScheduleArgAt(mc.When(), k.ringPushFn, mc)
	k.finishRx(mc)
}

// consumed closes a receive path whose message was fully handled in the
// kernel: queued sends go out at completion time and the buffer returns
// to the pool.
func (n *NIC) consumed(b *Binding, mc *MsgCtx) {
	mc.commitSends()
	b.Free(mc.Entry.BufIndex)
	n.K.finishRx(mc)
}
