package aegis

import (
	"fmt"
	"slices"

	"ashs/internal/dpf"
	"ashs/internal/netdev"
	"ashs/internal/pages"
	"ashs/internal/sim"
)

// EthernetIf is the Ethernet driver for one host. Unlike the AN2, the
// device's receive buffers are a limited kernel-owned pool ("the network
// buffers available to the device to receive into are limited, and
// therefore a message must not stay in them very long... at least one copy
// is always necessary"), and its DMA engine *stripes* an N-byte packet
// into a 2N-byte buffer as alternating 16-byte data and pad lines
// (Section III-C). Frames are classified by a DPF packet filter engine.
type EthernetIf struct {
	NIC

	engine *dpf.Engine
	// bindings holds every binding by value, one per BindFilter or
	// BindFilterSet. An unbound slot is never reused, so every *Binding
	// handed out stays valid.
	bindings pages.Array[Binding]
	// boundTo maps each FilterID to the index of its binding in bindings.
	// The engine issues ids densely and never reuses one, and a set's ids
	// are consecutive, so a set of 10^6 filters costs 4 bytes a filter and
	// one Binding.
	boundTo []uint32

	pool rxPool // striped kernel receive buffers (2x MTU each), shared by every binding

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
		NIC:    NIC{K: k, Port: sw.NewPort(), Sw: sw},
		engine: dpf.NewEngine(),
	}
	bufSize := 2 * (sw.Cfg.MaxFrame + StripeChunk)
	bufs := make([]Segment, nbufs)
	for i := range bufs {
		// Boot-time device pool on a fresh host: exhaustion here is a
		// misconfigured testbed, not guest misbehavior, so a panic is the
		// right failure mode.
		base, err := k.AllocPhys(bufSize, "eth-rx")
		if err != nil {
			panic(fmt.Errorf("%w (buffer %d of %d)", err, i, nbufs))
		}
		bufs[i] = Segment{Base: base, Len: uint32(bufSize)}
	}
	e.pool.init(&e.NIC, bufs, true)
	e.Port.SetReceiver(e.receive)
	return e
}

// BindFilter installs filter f for process p: a set of one (see
// BindFilterSet).
func (e *EthernetIf) BindFilter(p *Process, f *dpf.Filter) (*Binding, error) {
	return e.BindFilterSet(p, 1, func(_ int, g *dpf.Filter) { g.Atoms = f.Atoms })
}

// BindFilterSet installs n filters for process p as one binding: a frame
// any of them accepts is delivered to it. fill writes filter i as for
// dpf.Engine.InsertBatch, and the set is installed whole or not at all.
// The binding's ID is the set's first filter id, and the others follow it.
func (e *EthernetIf) BindFilterSet(p *Process, n int, fill func(i int, f *dpf.Filter)) (*Binding, error) {
	if n < 1 {
		return nil, fmt.Errorf("aegis: a filter set of %d filters", n)
	}
	first, err := e.engine.InsertBatch(n, fill)
	if err != nil {
		return nil, err
	}
	if int(first) != len(e.boundTo) {
		panic(fmt.Sprintf("aegis: DPF issued filter id %d, want %d", first, len(e.boundTo)))
	}
	bi := uint32(e.bindings.Len())
	e.boundTo = slices.Grow(e.boundTo, n)
	for range n {
		e.boundTo = append(e.boundTo, bi)
	}
	return e.bindings.Push(Binding{ID: int(first), Owner: p, pool: &e.pool}), nil
}

// TrieDepth reports the DPF trie's deepest installed path (see
// dpf.Engine.Depth): the structural bound one demux walk pays no matter
// how many filters are installed.
func (e *EthernetIf) TrieDepth() int { return e.engine.Depth() }

// Filters reports the number of installed filters.
func (e *EthernetIf) Filters() int { return e.engine.Len() }

// TrieCensus reports the DPF engine's storage (see dpf.Engine.Census).
func (e *EthernetIf) TrieCensus() dpf.Census { return e.engine.Census() }

// TrieWork reports the DPF engine's host work (see dpf.Engine.Work).
func (e *EthernetIf) TrieWork() dpf.Work { return e.engine.Work() }

// UnbindFilter removes a binding and every filter of its set. It refuses
// a binding that is not currently installed on this interface — one from
// another interface, or one already unbound — rather than remove whatever
// filters this engine issued the same numeric ids. The slot stays: the
// engine marks the ids removed and never issues them again, so it refuses
// a second unbind.
func (e *EthernetIf) UnbindFilter(b *Binding) error {
	id := b.ID
	if b.pool != &e.pool || id < 0 || id >= len(e.boundTo) || e.bindings.At(int(e.boundTo[id])) != b ||
		e.engine.Remove(dpf.FilterID(id)) != nil {
		return fmt.Errorf("aegis: filter %d is not bound on %s", b.ID, e.K.Name)
	}
	for set := e.boundTo[id]; id+1 < len(e.boundTo) && e.boundTo[id+1] == set; {
		id++
		if err := e.engine.Remove(dpf.FilterID(id)); err != nil {
			panic(fmt.Sprintf("aegis: filter %d of a bound set: %v", id, err))
		}
	}
	return nil
}

// Stripe writes frame into buf in the device's striped layout: 16 bytes of
// data, 16 bytes of padding, repeating. Frame reads it back.
func Stripe(buf, frame []byte) {
	for off := 0; off < len(frame); off += StripeChunk {
		end := off + StripeChunk
		if end > len(frame) {
			end = len(frame)
		}
		copy(buf[2*off:], frame[off:end])
	}
}

// receive is the Ethernet front half. The frame buffer is borrowed from
// the wire for the duration of the call: the striping DMA copies the
// payload into a kernel buffer and the driver never retains pkt. The order
// of effects is pinned by the overload goldens: an injected truncation
// cuts the frame before it is classified, and RxFrames/DemuxCycles move
// for every classified frame, before any injected drop.
func (e *EthernetIf) receive(pkt *netdev.PacketBuf) {
	intr, df, ok := e.arrive(pkt)
	if !ok {
		return
	}
	data := pkt.Bytes()
	if df.TruncateTo > 0 && df.TruncateTo < len(data) {
		// Truncated DMA: only a prefix of the frame lands in memory.
		e.Rx.Truncated++
		data = data[:df.TruncateTo]
	}

	// Demultiplex with the compiled DPF trie.
	id, demuxCycles, ok := e.engine.Demux(data)
	if !ok {
		e.Rx.NoMatch++
		return
	}
	b := e.bindings.At(int(e.boundTo[id]))
	e.RxFrames++
	e.DemuxCycles += demuxCycles
	if df.DropRing {
		// Injected notification-ring overflow: the arrival is lost after
		// classification, before any buffer is taken.
		e.Rx.InjectedRing++
		return
	}
	if !e.admit(b, df) {
		return
	}
	bufIdx, seg := e.pool.peek()
	e.pool.take()

	// Striping DMA into the kernel buffer, then the driver's software
	// cache flush over the landing area (twice the frame: data and pad).
	k, n := e.K, len(data)
	Stripe(k.Bytes(seg.Base, int(seg.Len)), data)
	k.Cache.FlushRange(seg.Base, 2*n)
	mc := e.begin(b, RingEntry{Addr: seg.Base, Len: n, Src: pkt.Src, BufIndex: bufIdx})
	e.deliver(b, mc, intr+sim.Time(k.Prof.DeviceRxService)+demuxCycles, "eth rx demux")
}

// Broadcast transmits one frame heard by every other port (ARP-style).
func (e *EthernetIf) Broadcast(p *Process, frame []byte) {
	e.Send(p, netdev.Broadcast, 0, frame)
}
