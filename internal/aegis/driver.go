package aegis

import (
	"fmt"

	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// Disposition is what a downloaded handler did with a message: from the
// kernel's point of view an ASH "either consumes the message it is given
// or returns it to the kernel to be handled normally" (Section II).
type Disposition int

const (
	// DispConsumed: the handler fully processed the message.
	DispConsumed Disposition = iota
	// DispToUser: deliver through the normal user-level path (the TCP
	// handler aborts this way when header prediction fails).
	DispToUser
)

// MsgHandler is the kernel's hook for downloaded message handlers. The ASH
// system (package core) implements it; so does the in-kernel hardwired
// handler used for Table I's first row.
type MsgHandler interface {
	// HandleMsg runs at message arrival, in the addressing context of the
	// owning process. All costs are charged through the context.
	HandleMsg(mc *MsgCtx) Disposition
}

// MsgCtx is the environment a message handler (ASH, upcall, or in-kernel
// code) runs in. It accumulates cycle costs; effects the handler initiates
// (sends, ring pushes) take place at arrival-time + accumulated-cost, so
// handler work is properly serialized on the virtual clock.
//
// Receive-path contexts are recycled through a per-kernel freelist: the
// driver acquires one per arriving frame and retires it once the last of
// its deferred effects (the commit-time transmits, the ring push) has
// fired, so the steady-state arrival path allocates nothing. Handlers must
// not hold a *MsgCtx past their return.
type MsgCtx struct {
	K     *Kernel
	Owner *Process // owning process (addressing context); nil for in-kernel
	Entry RingEntry
	VC    int
	Src   int

	// Striped marks an Ethernet arrival whose kernel buffer holds the
	// frame in the striping DMA's alternating 16-byte data/pad layout;
	// handlers that touch the buffer in place must index it through
	// StripedIndex (or use RawData and account for the doubling).
	Striped bool

	nic  *NIC  // the interface the message arrived on; nil for synthetic
	ring *Ring // the binding's notification ring (for doorbells)
	t0   sim.Time
	cost sim.Time

	// userLevel is set while an upcall handler runs: sends then go through
	// the system call interface rather than straight to the driver.
	userLevel bool

	// sends queues the messages the handler initiated, each already in a
	// frame leased from the wire pool. They are transmitted when the handler
	// commits (returns), at the path's completion time — an aborted handler
	// must not have sent (the commit/abort discipline of Section II-A).
	sends []*netdev.PacketBuf

	// Freelist plumbing: pins counts scheduled events still holding this
	// context, done marks the receive path as returned, pooled marks
	// contexts owned by the kernel freelist (SyntheticMsg contexts are
	// not), next chains the freelist.
	pins   int
	done   bool
	pooled bool
	next   *MsgCtx
}

// acquireMsgCtx takes a scrubbed context from the freelist.
func (k *Kernel) acquireMsgCtx() *MsgCtx {
	mc := k.mcFree
	if mc != nil {
		k.mcFree = mc.next
		mc.next = nil
	} else {
		mc = &MsgCtx{}
	}
	mc.pooled = true
	return mc
}

// retireMsgCtx scrubs a pooled context and returns it to the freelist.
func (k *Kernel) retireMsgCtx(mc *MsgCtx) {
	if !mc.pooled {
		return
	}
	sends := mc.sends[:0]
	*mc = MsgCtx{sends: sends}
	mc.next = k.mcFree
	k.mcFree = mc
}

// finishRx closes a receive path: it serializes subsequent kernel work
// behind this one and retires the context once no scheduled effect still
// needs it.
func (k *Kernel) finishRx(mc *MsgCtx) {
	k.kernBusyUntil = mc.When()
	mc.done = true
	if mc.pins == 0 {
		k.retireMsgCtx(mc)
	}
}

// unpin drops one scheduled-effect reference.
func (k *Kernel) unpin(mc *MsgCtx) {
	mc.pins--
	if mc.done && mc.pins == 0 {
		k.retireMsgCtx(mc)
	}
}

// mcCommit is the commit-time event: transmit the queued sends.
func (k *Kernel) mcCommit(a any) {
	mc := a.(*MsgCtx)
	for i, pkt := range mc.sends {
		mc.nic.transmit(pkt)
		mc.sends[i] = nil
	}
	mc.sends = mc.sends[:0]
	k.unpin(mc)
}

// mcRingPush is the delivery-time event: push the arrival notification.
func (k *Kernel) mcRingPush(a any) {
	mc := a.(*MsgCtx)
	mc.ring.push(mc.Entry, sim.Time(k.Prof.SchedDecision))
	k.unpin(mc)
}

// mcDoorbell is the doorbell event: push a zero-length notification.
func (k *Kernel) mcDoorbell(a any) {
	mc := a.(*MsgCtx)
	mc.ring.push(RingEntry{Len: 0, BufIndex: -1}, sim.Time(k.Prof.SchedDecision))
	k.unpin(mc)
}

// Charge adds handler cycles.
func (mc *MsgCtx) Charge(c sim.Time) { mc.cost += c }

// Cost reports cycles accumulated so far on this receive path.
func (mc *MsgCtx) Cost() sim.Time { return mc.cost }

// When reports the virtual time at which the path's work completes.
func (mc *MsgCtx) When() sim.Time { return mc.t0 + mc.cost }

// Data returns the received bytes (the DMA'd message in the owner's
// buffer). Handlers performing modeled data access must charge separately.
// For striped arrivals only the first data line is contiguous — use
// RawData with StripedIndex to address the rest.
func (mc *MsgCtx) Data() []byte {
	return mc.K.Bytes(mc.Entry.Addr, mc.Entry.Len)
}

// RawData returns the buffer as the device laid it out: for striped
// Ethernet arrivals that is the alternating data/pad window covering the
// whole frame (index it with StripedIndex); otherwise it is Data.
func (mc *MsgCtx) RawData() []byte {
	if !mc.Striped || mc.Entry.Len == 0 {
		return mc.Data()
	}
	return mc.K.Bytes(mc.Entry.Addr, StripedIndex(mc.Entry.Len-1)+1)
}

// Send initiates a message from the handler ("ASHs can send messages...
// allowing low-latency message replies"). The transmit setup is charged
// now; the packet is released when the handler commits.
func (mc *MsgCtx) Send(dst, vc int, data []byte) {
	if mc.userLevel {
		// Upcall handlers send from user level: full system call.
		mc.Charge(sim.Time(mc.K.Prof.SyscallCycles))
	}
	mc.Charge(sim.Time(mc.K.Prof.DeviceTxSetup))
	if mc.nic == nil {
		// Synthetic context (Section V-D isolation runs, "without the cost
		// of communication"): no wire to lease from, nothing to transmit.
		return
	}
	pkt := mc.nic.Sw.LeaseData(data)
	pkt.Dst, pkt.VC = dst, vc
	mc.sends = append(mc.sends, pkt)
}

// commitSends releases queued sends at the path's completion time.
func (mc *MsgCtx) commitSends() {
	if len(mc.sends) == 0 {
		return
	}
	mc.pins++
	mc.K.Eng.ScheduleArgAt(mc.When(), mc.K.commitFn, mc)
}

// abortSends discards queued sends (the handler aborted), returning their
// leases to the wire pool.
func (mc *MsgCtx) abortSends() {
	for i, pkt := range mc.sends {
		pkt.Release()
		mc.sends[i] = nil
	}
	mc.sends = mc.sends[:0]
}

// Doorbell pushes a zero-length notification onto the owning binding's
// ring at path-completion time: a handler that consumed a message uses it
// to tell the user-level library to re-examine shared state. The ring
// update is charged like any other.
func (mc *MsgCtx) Doorbell() {
	if mc.ring == nil {
		return
	}
	mc.Charge(sim.Time(mc.K.Prof.RingUpdateCycles))
	mc.pins++
	mc.K.Eng.ScheduleArgAt(mc.When(), mc.K.doorbellFn, mc)
}

// SyntheticMsg fabricates a message context for running a handler in
// isolation — the paper's Section V-D methodology: "we take this
// measurement in isolation, without the cost of communication, but with
// both ASHs running in the kernel". The message is assumed already in
// memory at entry.Addr.
func SyntheticMsg(k *Kernel, owner *Process, entry RingEntry) *MsgCtx {
	return &MsgCtx{K: k, Owner: owner, Entry: entry, VC: entry.VC, Src: entry.Src,
		t0: k.Eng.Now()}
}

// KernelRx is hardwired kernel-level message code. Installed as the
// Handler of an AN2 circuit bound with no owner, it makes the circuit the
// in-kernel endpoint of Table I's first row: a polled driver loop with no
// interrupt, demux, or user-level delivery costs.
type KernelRx func(mc *MsgCtx)

// HandleMsg implements MsgHandler: kernel code always consumes.
func (f KernelRx) HandleMsg(mc *MsgCtx) Disposition {
	f(mc)
	return DispConsumed
}

// AN2If is the AN2 (ATM) driver instance for one host: demultiplexing is
// a table lookup on the virtual circuit, and each circuit DMAs into
// buffers its owner provided.
type AN2If struct {
	NIC
	vcs map[int]*Binding
}

// NewAN2 attaches an AN2 interface to host k on switch sw.
func NewAN2(k *Kernel, sw *netdev.Switch) *AN2If {
	a := &AN2If{NIC: NIC{K: k, Port: sw.NewPort(), Sw: sw}, vcs: map[int]*Binding{}}
	a.Port.SetReceiver(a.receive)
	return a
}

// BindVC binds a virtual circuit for process p with nbufs receive buffers
// of bufSize bytes, allocated in p's address space ("providing a section
// of their memory for messages to be DMA'ed to"). For in-kernel endpoints
// pass p == nil and buffers land in kernel memory.
func (a *AN2If) BindVC(p *Process, vc, nbufs, bufSize int) (*Binding, error) {
	if _, dup := a.vcs[vc]; dup {
		return nil, fmt.Errorf("aegis %s: VC %d already bound", a.K.Name, vc)
	}
	bufs := make([]Segment, nbufs)
	for i := range bufs {
		if p != nil {
			s, err := p.AS.Alloc(bufSize, fmt.Sprintf("an2-rx-vc%d-%d", vc, i))
			if err != nil {
				return nil, err
			}
			bufs[i] = s
		} else {
			base, err := a.K.AllocPhys(bufSize, fmt.Sprintf("an2-krx-vc%d-%d", vc, i))
			if err != nil {
				return nil, err
			}
			bufs[i] = Segment{Base: base, Len: uint32(bufSize)}
		}
	}
	b := &Binding{ID: vc, Owner: p, Ring: Ring{k: a.K}, nic: &a.NIC, pool: &rxPool{}}
	b.pool.init(bufs, false)
	a.vcs[vc] = b
	return b, nil
}

// receive is the AN2 front half (event context, at DMA-complete time).
// The frame buffer is borrowed from the wire for the duration of the
// call: the driver copies the payload into a bound receive buffer and
// never retains pkt. The order of effects is pinned by the chaos goldens:
// an injected ring drop is counted before the circuit is looked up, the
// frame is truncated after the buffer is picked, and the buffer leaves
// the pool only once the frame is known to fit.
func (a *AN2If) receive(pkt *netdev.PacketBuf) {
	intr, df, ok := a.arrive(pkt)
	if !ok {
		return
	}
	if df.DropRing {
		// Notification-ring overflow: the arrival is never raised.
		a.Rx.InjectedRing++
		return
	}
	b := a.vcs[pkt.VC]
	if b == nil {
		a.Rx.NoMatch++
		return
	}
	if !a.admit(b, df) {
		return
	}
	bufIdx, seg := b.pool.peek()
	data := pkt.Bytes()
	n := len(data)
	if df.TruncateTo > 0 && df.TruncateTo < n {
		a.Rx.Truncated++
		n = df.TruncateTo
	}
	if uint32(n) > seg.Len {
		// The bound receive buffers are too small for this message: the
		// DMA engine has nowhere to put it.
		a.Rx.TooBig++
		return
	}
	b.pool.take()
	// The DMA itself costs no CPU; the driver then flushes the cache over
	// the message location "to ensure consistency after the DMA".
	k := a.K
	copy(k.Bytes(seg.Base, n), data[:n])
	k.Cache.FlushRange(seg.Base, n)
	mc := a.begin(b, RingEntry{Addr: seg.Base, Len: n, VC: pkt.VC, Src: pkt.Src, BufIndex: bufIdx})

	prof := k.Prof
	if rx, inKernel := b.Handler.(KernelRx); inKernel {
		// Hardwired kernel endpoint: polled driver loop. (The interrupt
		// entry above was still taken and counted.)
		mc.Charge(sim.Time(prof.KernelPollCycles + prof.DeviceRxService))
		k.Obs.Span(k.Name, "device", "device", "an2 rx poll", mc.t0, mc.Cost())
		s0 := mc.When()
		rx(mc)
		k.Obs.Span(k.Name, "device", "ash", "in-kernel rx", s0, mc.When()-s0)
		a.consumed(b, mc)
		return
	}
	a.deliver(b, mc, intr+sim.Time(prof.DeviceRxService+prof.DemuxVCCycles), "an2 rx demux")
}
