package aegis

import (
	"testing"
	"unsafe"

	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// dpfFilter matches frames whose first byte equals tag.
func dpfFilter(tag byte) *dpf.Filter {
	return dpf.NewFilter().Eq8(0, tag)
}

func newHost(eng *sim.Engine, name string) *Kernel {
	return NewKernel(name, eng, mach.DS5000_240())
}

func TestComputeAdvancesVirtualTime(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	var end sim.Time
	k.Spawn("app", func(p *Process) {
		p.Compute(1000)
		end = p.K.Now()
	})
	eng.Run()
	if end != 1000 {
		t.Fatalf("end = %d, want 1000", end)
	}
}

func TestTwoProcessesShareCPU(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	q := sim.Time(k.Prof.QuantumCycles)
	var endA, endB sim.Time
	k.Spawn("a", func(p *Process) {
		p.Compute(2 * q)
		endA = p.K.Now()
	})
	k.Spawn("b", func(p *Process) {
		p.Compute(2 * q)
		endB = p.K.Now()
	})
	eng.Run()
	// Interleaved round-robin: total CPU demand is 4 quanta; both finish
	// near the end, not serially.
	if endA < 3*q || endB < 3*q {
		t.Fatalf("processes ran serially: endA=%d endB=%d q=%d", endA, endB, q)
	}
	if k.CtxSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestAddrSpaceProtection(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	var seg Segment
	k.Spawn("app", func(p *Process) {
		seg = p.AS.MustAlloc(4096, "data")
		if err := vcode.Store32(p.AS, seg.Base+8, 42); err != nil {
			t.Error(err)
		}
		v, err := vcode.Load32(p.AS, seg.Base+8)
		if err != nil || v != 42 {
			t.Errorf("load = %d, %v", v, err)
		}
		// Outside any segment: fault.
		if _, err := vcode.Load32(p.AS, HostMemBase+HostMemSize-4); err == nil {
			t.Error("load outside address space succeeded")
		}
	})
	eng.Run()
}

func TestAddrSpaceResidency(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	k.Spawn("app", func(p *Process) {
		seg := p.AS.MustAlloc(2*PageSize, "data")
		p.AS.Unpin(seg.Base + PageSize)
		if _, err := vcode.Load32(p.AS, seg.Base); err != nil {
			t.Error("resident page faulted")
		}
		if _, err := vcode.Load32(p.AS, seg.Base+PageSize); err == nil {
			t.Error("non-resident page loaded")
		}
		p.AS.Pin(seg.Base + PageSize)
		if _, err := vcode.Load32(p.AS, seg.Base+PageSize); err != nil {
			t.Error("re-pinned page faulted")
		}
	})
	eng.Run()
}

// buildAN2Pair wires two hosts to one AN2 switch.
func buildAN2Pair(eng *sim.Engine) (*Kernel, *Kernel, *AN2If, *AN2If) {
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := NewKernel("client", eng, prof)
	k2 := NewKernel("server", eng, prof)
	return k1, k2, NewAN2(k1, sw), NewAN2(k2, sw)
}

// inKernelEcho installs a hardwired kernel echo endpoint on iface/vc.
func inKernelEcho(t *testing.T, iface *AN2If, vc int) {
	t.Helper()
	b, err := iface.BindVC(nil, vc, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b.Handler = KernelRx(func(mc *MsgCtx) {
		data := append([]byte(nil), mc.Data()...)
		mc.Send(mc.Src, mc.VC, data)
	})
}

func TestTable1InKernelAN2Latency(t *testing.T) {
	// Table I row 1: in-kernel AN2 4-byte round trip ~112 us.
	eng := sim.NewEngine()
	k1, _, a1, a2 := buildAN2Pair(eng)
	inKernelEcho(t, a2, 5)

	// Client side is also in-kernel: driver-level ping-pong.
	b1, err := a1.BindVC(nil, 5, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 10
	count := 0
	var done sim.Time
	b1.Handler = KernelRx(func(mc *MsgCtx) {
		count++
		if count < iters {
			mc.Send(mc.Src, mc.VC, []byte{1, 2, 3, 4})
		} else {
			done = mc.When()
		}
	})
	a1.KernelSend(a2.Addr(), 5, []byte{1, 2, 3, 4})
	eng.Run()
	if count != iters {
		t.Fatalf("count = %d", count)
	}
	rt := k1.Prof.Us(done) / iters
	if rt < 106 || rt > 118 {
		t.Fatalf("in-kernel AN2 RT = %.1f us, want ~112 (Table I)", rt)
	}
}

// userEcho spawns a polling user-level echo server that serves iters
// messages and exits (so the simulation drains).
func userEcho(t *testing.T, k *Kernel, iface *AN2If, vc, iters int) {
	t.Helper()
	k.Spawn("echo", func(p *Process) {
		b, err := iface.BindVC(p, vc, 8, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < iters; i++ {
			e, _ := b.Ring().PollRecvUntil(p, 0)
			data, err := p.AS.Bytes(e.Addr, e.Len)
			if err != nil {
				t.Error(err)
				return
			}
			msg := append([]byte(nil), data...)
			// The library re-arms the receive buffer as part of receive
			// processing, before handing the data to the application.
			p.Compute(sim.Time(k.Prof.BufferMgmtCycles))
			b.Free(e.BufIndex)
			iface.Send(p, e.Src, e.VC, msg)
		}
	})
}

// userPingPong measures the mean user-level round trip over iters.
func userPingPong(t *testing.T, eng *sim.Engine, k1 *Kernel, a1 *AN2If, dstAddr, vc, iters int) float64 {
	t.Helper()
	var total sim.Time
	k1.Spawn("client", func(p *Process) {
		b, err := a1.BindVC(p, vc, 8, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		start := p.K.Now()
		for i := 0; i < iters; i++ {
			a1.Send(p, dstAddr, vc, []byte{1, 2, 3, 4})
			e, _ := b.Ring().PollRecvUntil(p, 0)
			p.Compute(sim.Time(p.K.Prof.BufferMgmtCycles))
			b.Free(e.BufIndex)
		}
		total = p.K.Now() - start
	})
	eng.Run()
	return k1.Prof.Us(total) / float64(iters)
}

func TestTable1UserLevelAN2Latency(t *testing.T) {
	// Table I row 2: user-level AN2 4-byte round trip ~182 us.
	eng := sim.NewEngine()
	k1, k2, a1, a2 := buildAN2Pair(eng)
	userEcho(t, k2, a2, 5, 10)
	rt := userPingPong(t, eng, k1, a1, a2.Addr(), 5, 10)
	if rt < 174 || rt > 190 {
		t.Fatalf("user-level AN2 RT = %.1f us, want ~182 (Table I)", rt)
	}
}

func TestTable1EthernetLatency(t *testing.T) {
	// Table I row 3: user-level Ethernet 4-byte round trip ~309 us.
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := NewKernel("client", eng, prof)
	k2 := NewKernel("server", eng, prof)
	e1, e2 := NewEthernet(k1, sw), NewEthernet(k2, sw)

	k2.Spawn("echo", func(p *Process) {
		b, err := e2.BindFilter(p, dpfFilter(0xAA))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 10; i++ {
			en, _ := b.Ring().PollRecvUntil(p, 0)
			f := b.Frame(en)
			frame := make([]byte, en.Len)
			f.Bytes(frame, 0, en.Len)
			frame[0] = 0xBB // retag for the client's filter
			p.Compute(sim.Time(p.K.Prof.BufferMgmtCycles))
			b.Free(en.BufIndex)
			e2.Send(p, en.Src, 0, frame)
		}
	})

	var total sim.Time
	const iters = 10
	k1.Spawn("client", func(p *Process) {
		b, err := e1.BindFilter(p, dpfFilter(0xBB))
		if err != nil {
			t.Error(err)
			return
		}
		start := p.K.Now()
		for i := 0; i < iters; i++ {
			e1.Send(p, e2.Addr(), 0, []byte{0xAA, 0, 0, 4})
			en, _ := b.Ring().PollRecvUntil(p, 0)
			p.Compute(sim.Time(p.K.Prof.BufferMgmtCycles))
			b.Free(en.BufIndex)
		}
		total = p.K.Now() - start
	})
	eng.Run()
	rt := k1.Prof.Us(total) / iters
	if rt < 296 || rt > 322 {
		t.Fatalf("Ethernet RT = %.1f us, want ~309 (Table I)", rt)
	}
}

func TestPollRecvSingleProcessPromptness(t *testing.T) {
	// A lone polling process must see a message within a few microseconds
	// of the ring push, not a quantum later.
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	r := &Ring{}
	var sawAt sim.Time
	k.Spawn("poller", func(p *Process) {
		e, _ := r.PollRecvUntil(p, 0)
		_ = e
		sawAt = p.K.Now()
	})
	eng.Schedule(10000, func() { r.push(RingEntry{Len: 4}, 0) })
	eng.Run()
	lag := k.Prof.Us(sawAt - 10000)
	if lag < 0.5 || lag > 5 {
		t.Fatalf("polling lag = %.2f us, want ~1.5", lag)
	}
}

func TestWaitRecvChargesWakePath(t *testing.T) {
	// A blocked receiver pays the scheduling + context-switch path: ~60+ us.
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	r := &Ring{}
	var sawAt sim.Time
	k.Spawn("sleeper", func(p *Process) {
		e, _ := r.WaitRecvUntil(p, 0)
		_ = e
		sawAt = p.K.Now()
	})
	// A competitor so the wake implies a real context switch.
	k.Spawn("spinner", func(p *Process) {
		p.Compute(sim.Time(k.Prof.QuantumCycles) * 100)
	})
	eng.Schedule(50000, func() { r.push(RingEntry{Len: 4}, sim.Time(k.Prof.SchedDecision)) })
	eng.Run()
	if sawAt == 0 {
		t.Fatal("receiver never woke")
	}
	lag := k.Prof.Us(sawAt - 50000)
	// Under oblivious round-robin the sleeper waits for the spinner's
	// quantum to end; lag is between the switch cost and a full quantum.
	if lag < 60 {
		t.Fatalf("wake lag = %.1f us, want >= context-switch cost", lag)
	}
}

func TestPriorityBoostWakesFast(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	k.Sched = NewPriorityBoost(k)
	r := &Ring{}
	var sawAt sim.Time
	k.Spawn("sleeper", func(p *Process) {
		e, _ := r.WaitRecvUntil(p, 0)
		_ = e
		sawAt = p.K.Now()
	})
	k.Spawn("spinner", func(p *Process) {
		p.Compute(sim.Time(k.Prof.QuantumCycles) * 100)
	})
	eng.Schedule(50000, func() { r.push(RingEntry{Len: 4}, sim.Time(k.Prof.SchedDecision)) })
	eng.RunUntil(50000 + sim.Time(k.Prof.QuantumCycles))
	if sawAt == 0 {
		t.Fatal("receiver never woke under priority boost")
	}
	lag := k.Prof.Us(sawAt - 50000)
	if lag > 100 {
		t.Fatalf("boost wake lag = %.1f us, want well under a quantum (15625)", lag)
	}
}

func TestAN2BufferExhaustionDrops(t *testing.T) {
	eng := sim.NewEngine()
	_, _, a1, a2 := buildAN2Pair(eng)
	b, err := a2.BindVC(nil, 3, 2, 4096) // only 2 buffers, nobody consuming
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a1.KernelSend(a2.Addr(), 3, []byte{byte(i)})
	}
	eng.Run()
	if a2.Rx.NoBuffer != 3 {
		t.Fatalf("dropped = %d, want 3", a2.Rx.NoBuffer)
	}
	if b.Ring().Len() != 2 {
		t.Fatalf("ring has %d entries, want 2", b.Ring().Len())
	}
}

func TestAN2UnboundVCDrops(t *testing.T) {
	eng := sim.NewEngine()
	_, _, a1, a2 := buildAN2Pair(eng)
	a1.KernelSend(a2.Addr(), 99, []byte{1})
	eng.Run()
	if a2.Rx.NoMatch != 1 {
		t.Fatalf("Rx.NoMatch = %d, want 1", a2.Rx.NoMatch)
	}
}

func TestStripeUnstripeRoundTrip(t *testing.T) {
	const base = 0x1000
	for _, n := range []int{1, 15, 16, 17, 100, 1514} {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(i * 7)
		}
		mem := vcode.NewFlatMem(base, 2*(n+StripeChunk))
		Stripe(mem.Data, frame)
		f := Frame{Entry: RingEntry{Addr: base, Len: n}, Striped: true, mem: mem}
		out := make([]byte, n)
		f.Bytes(out, 0, n)
		for i := range frame {
			if out[i] != frame[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
		// Verify the layout: data byte i lives in data line i/16, which
		// starts after i/16 data and i/16 pad lines.
		for i := 0; i < n; i++ {
			at := 2*(i/StripeChunk)*StripeChunk + i%StripeChunk
			if addr, _ := f.Line(i); addr != base+uint32(at) || mem.Data[at] != frame[i] {
				t.Fatalf("n=%d: data byte %d at %#x, want %#x", n, i, addr, base+at)
			}
		}
	}
}

// ethTx leases a frame on e's switch and transmits it from e's port.
func ethTx(e *EthernetIf, dst int, data []byte) error {
	pkt := e.Sw.LeaseData(data)
	pkt.Dst = dst
	return e.Port.Transmit(pkt)
}

func TestEthernetDemuxToCorrectBinding(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := NewKernel("tx", eng, prof)
	k2 := NewKernel("rx", eng, prof)
	e1, e2 := NewEthernet(k1, sw), NewEthernet(k2, sw)

	bA, err := e2.BindFilter(nil, dpfFilter(0x11))
	if err != nil {
		t.Fatal(err)
	}
	bB, err := e2.BindFilter(nil, dpfFilter(0x22))
	if err != nil {
		t.Fatal(err)
	}
	ethTx(e1, e2.Addr(), []byte{0x22, 9, 9, 9})
	ethTx(e1, e2.Addr(), []byte{0x11, 8, 8, 8})
	ethTx(e1, e2.Addr(), []byte{0x33, 7, 7, 7})
	eng.Run()
	if bA.Ring().Len() != 1 || bB.Ring().Len() != 1 {
		t.Fatalf("ring lengths %d/%d, want 1/1", bA.Ring().Len(), bB.Ring().Len())
	}
	if e2.Rx.NoMatch != 1 {
		t.Fatalf("Rx.NoMatch = %d, want 1", e2.Rx.NoMatch)
	}
	en, _ := bA.Ring().TryRecv()
	got := make([]byte, en.Len)
	f := bA.Frame(en)
	f.Bytes(got, 0, en.Len)
	if got[0] != 0x11 || got[1] != 8 {
		t.Fatalf("wrong frame content %v", got)
	}
}

// TestUnbindFilterChecksTheBinding: a binding from another interface, or
// one already unbound, must be refused — not translated into "remove
// whatever this engine installed under the same numeric id".
func TestUnbindFilterChecksTheBinding(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	e1, e2 := NewEthernet(NewKernel("tx", eng, prof), sw), NewEthernet(NewKernel("rx", eng, prof), sw)

	foreign, err := e1.BindFilter(nil, dpfFilter(0x99))
	if err != nil {
		t.Fatal(err)
	}
	innocent, err := e2.BindFilter(nil, dpfFilter(0x11))
	if err != nil {
		t.Fatal(err)
	}
	if foreign.ID != innocent.ID {
		t.Fatalf("setup: ids %d and %d were meant to collide", foreign.ID, innocent.ID)
	}
	if err := e2.UnbindFilter(foreign); err == nil {
		t.Error("unbinding another interface's binding succeeded")
	}
	gone, err := e2.BindFilter(nil, dpfFilter(0x22))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.UnbindFilter(gone); err != nil {
		t.Fatal(err)
	}
	if err := e2.UnbindFilter(gone); err == nil {
		t.Error("unbinding twice succeeded")
	}
	if e2.Filters() != 1 {
		t.Fatalf("%d filters installed on rx, want the innocent one", e2.Filters())
	}
	ethTx(e1, e2.Addr(), []byte{0x11, 8, 8, 8})
	ethTx(e1, e2.Addr(), []byte{0x22, 9, 9, 9})
	eng.Run()
	if innocent.Ring().Len() != 1 || e2.Rx.NoMatch != 1 {
		t.Fatalf("innocent ring holds %d frames, %d dropped for no filter; want 1 and 1",
			innocent.Ring().Len(), e2.Rx.NoMatch)
	}
}

// TestFilterSetIsOneBinding: a frame that any member of a set accepts
// reaches the set's one binding, in the order the frames arrived, and a
// binding made before or after the set keeps its own frames.
func TestFilterSetIsOneBinding(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	e1, e2 := NewEthernet(NewKernel("tx", eng, prof), sw), NewEthernet(NewKernel("rx", eng, prof), sw)

	before, err := e2.BindFilter(nil, dpfFilter(0x01))
	if err != nil {
		t.Fatal(err)
	}
	set, err := e2.BindFilterSet(nil, 5, func(i int, f *dpf.Filter) { f.Atoms = dpfFilter(0x10 + byte(i)).Atoms })
	if err != nil {
		t.Fatal(err)
	}
	after, err := e2.BindFilter(nil, dpfFilter(0x02))
	if err != nil {
		t.Fatal(err)
	}
	if before.ID != 0 || set.ID != 1 || after.ID != 6 || e2.Filters() != 7 {
		t.Fatalf("ids %d, %d, %d with %d filters; want 0, 1 (the set's first), 6 and 7",
			before.ID, set.ID, after.ID, e2.Filters())
	}
	for _, tag := range []byte{0x13, 0x01, 0x10, 0x14, 0x02, 0x11} {
		ethTx(e1, e2.Addr(), []byte{tag, 9, 9, 9})
	}
	eng.Run()
	var got []byte
	for set.Ring().Len() > 0 {
		en, _ := set.Ring().TryRecv()
		b, f := make([]byte, 1), set.Frame(en)
		f.Bytes(b, 0, 1)
		got = append(got, b[0])
	}
	if string(got) != "\x13\x10\x14\x11" || before.Ring().Len() != 1 || after.Ring().Len() != 1 {
		t.Fatalf("the set's binding got %x, the others %d and %d frames; want 13101411, 1 and 1",
			got, before.Ring().Len(), after.Ring().Len())
	}
}

// TestUnbindFilterSet: unbinding a set's binding removes every member, and
// only those, and a second unbind is refused.
func TestUnbindFilterSet(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	e1, e2 := NewEthernet(NewKernel("tx", eng, prof), sw), NewEthernet(NewKernel("rx", eng, prof), sw)

	set, err := e2.BindFilterSet(nil, 3, func(i int, f *dpf.Filter) { f.Atoms = dpfFilter(0x10 + byte(i)).Atoms })
	if err != nil {
		t.Fatal(err)
	}
	other, err := e2.BindFilter(nil, dpfFilter(0x20))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.UnbindFilter(set); err != nil {
		t.Fatal(err)
	}
	if err := e2.UnbindFilter(set); err == nil {
		t.Error("unbinding a set twice succeeded")
	}
	if e2.Filters() != 1 {
		t.Fatalf("%d filters installed, want the other binding's one", e2.Filters())
	}
	for _, tag := range []byte{0x10, 0x11, 0x12, 0x20} {
		ethTx(e1, e2.Addr(), []byte{tag, 9, 9, 9})
	}
	eng.Run()
	if other.Ring().Len() != 1 || e2.Rx.NoMatch != 3 {
		t.Fatalf("other binding holds %d frames, %d dropped for no filter; want 1 and 3",
			other.Ring().Len(), e2.Rx.NoMatch)
	}
	if _, err := e2.BindFilterSet(nil, 0, nil); err == nil {
		t.Error("an empty filter set was bound")
	}
	if _, err := e2.BindFilterSet(nil, 2, func(int, *dpf.Filter) {}); err == nil || e2.Filters() != 1 {
		t.Errorf("a set of two empty filters was bound (err %v, %d filters)", err, e2.Filters())
	}
}

// TestBindFilterIsOneAllocation: BindFilter costs at most one allocation,
// and in fact far less. A binding, ring included, is a slot in the
// interface's pages, and the engine grows in slabs, so 4096 binds on a
// fresh interface allocate at most one object per 32 of them, and so does
// one set of 4096. mega-setup
// makes 262 144 bindings, so the size is pinned too: one more word is
// 2 MiB more pages.
func TestBindFilterIsOneAllocation(t *testing.T) {
	const n = 4096
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	// AllocsPerRun makes one warm-up call: each call gets its own interface.
	ifs := []*EthernetIf{NewEthernet(NewKernel("warm", eng, prof), sw), NewEthernet(NewKernel("rx", eng, prof), sw)}
	f := dpf.NewFilter().Eq32(0, 0)
	var b *Binding
	allocs := testing.AllocsPerRun(1, func() {
		e := ifs[0]
		ifs = ifs[1:]
		for i := 0; i < n; i++ {
			f.Atoms[0].Value = uint32(i)
			var err error
			if b, err = e.BindFilter(nil, f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > n/32 {
		t.Errorf("%d BindFilter calls allocate %v objects, want at most %d", n, allocs, n/32)
	}
	// The same filters as one set: the engine's pages, the id table and the
	// batch's scratch, not an object per filter.
	e := NewEthernet(NewKernel("set", eng, prof), sw)
	allocs = testing.AllocsPerRun(1, func() {
		var err error
		if b, err = e.BindFilterSet(nil, n, func(i int, g *dpf.Filter) {
			f.Atoms[0].Value = uint32(i)
			g.Atoms = f.Atoms
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.UnbindFilter(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/32 {
		t.Errorf("a set of %d filters allocates %v objects, want at most %d", n, allocs, n/32)
	}
	if size := unsafe.Sizeof(*b); size > 128 {
		t.Errorf("Binding is %d bytes, want at most 128", size)
	}
}

func TestUpcallRunsWithoutScheduling(t *testing.T) {
	eng := sim.NewEngine()
	_, k2, a1, a2 := buildAN2Pair(eng)
	var ranAt sim.Time
	owner := k2.Spawn("owner", func(p *Process) {
		p.Compute(sim.Time(k2.Prof.QuantumCycles) * 10) // busy elsewhere
	})
	b, err := a2.BindVC(owner, 7, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b.Upcall = NewUpcall(owner, func(mc *MsgCtx) Disposition {
		mc.Charge(10)
		ranAt = mc.When()
		return DispConsumed
	})
	a1.KernelSend(a2.Addr(), 7, []byte{1, 2, 3, 4})
	eng.Run()
	if ranAt == 0 {
		t.Fatal("upcall never ran")
	}
	// The upcall ran at arrival + dispatch costs, not after the owner's
	// long computation.
	us := k2.Prof.Us(ranAt)
	if us > 200 {
		t.Fatalf("upcall ran at %.1f us — waited for scheduling?", us)
	}
	if b.Upcall.Invocations != 1 {
		t.Fatalf("invocations = %d", b.Upcall.Invocations)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine()
		k1, k2, a1, a2 := buildAN2Pair(eng)
		_ = k1
		userEcho(t, k2, a2, 5, 5)
		var total sim.Time
		k1.Spawn("client", func(p *Process) {
			b, _ := a1.BindVC(p, 5, 8, 4096)
			start := p.K.Now()
			for i := 0; i < 5; i++ {
				a1.Send(p, a2.Addr(), 5, []byte{1, 2, 3, 4})
				e, _ := b.Ring().PollRecvUntil(p, 0)
				b.Free(e.BufIndex)
			}
			total = p.K.Now() - start
		})
		eng.Run()
		return total
	}
	first := run()
	for i := 0; i < 5; i++ {
		if again := run(); again != first {
			t.Fatalf("nondeterministic: %d vs %d", first, again)
		}
	}
}

func TestCondBroadcastWakesEveryWaiter(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	var cond Cond
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Process) {
			if cond.WaitTimeout(p, 1_000_000) {
				woken++
			}
		})
	}
	eng.RunUntil(100_000)
	if n := len(cond.waiters); n != 3 {
		t.Fatalf("waiters = %d, want 3", n)
	}
	eng.Schedule(0, func() { cond.Broadcast(0) })
	eng.Run()
	if woken != 3 {
		t.Fatalf("Broadcast woke %d of 3 waiters", woken)
	}
	if n := len(cond.waiters); n != 0 {
		t.Fatalf("stale waiters: %d", n)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	var cond Cond
	var signalled, timedOut bool
	k.Spawn("a", func(p *Process) {
		signalled = cond.WaitTimeout(p, 5000)
	})
	k.Spawn("b", func(p *Process) {
		timedOut = !cond.WaitTimeout(p, 1000)
	})
	eng.Schedule(2000, func() { cond.Broadcast(0) })
	eng.Run()
	if !signalled {
		t.Fatal("broadcast within deadline reported as timeout")
	}
	if !timedOut {
		t.Fatal("expired wait did not report timeout")
	}
	if n := len(cond.waiters); n != 0 {
		t.Fatalf("stale waiters: %d", n)
	}
}

func TestEthernetBufferPoolExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := NewKernel("tx", eng, prof)
	k2 := NewKernel("rx", eng, prof)
	e1, e2 := NewEthernet(k1, sw), NewEthernet(k2, sw)
	_ = k1
	b, err := e2.BindFilter(nil, dpfFilter(0x55))
	if err != nil {
		t.Fatal(err)
	}
	// Nobody consumes: the bounded device pool (EthRxBuffers) must fill
	// and the device must drop, not wedge.
	for i := 0; i < EthRxBuffers+10; i++ {
		_ = ethTx(e1, e2.Addr(), []byte{0x55, byte(i)})
	}
	eng.Run()
	if e2.Rx.NoBuffer != 10 {
		t.Fatalf("Rx.NoBuffer = %d, want 10", e2.Rx.NoBuffer)
	}
	if b.Ring().Len() != EthRxBuffers {
		t.Fatalf("ring = %d, want %d", b.Ring().Len(), EthRxBuffers)
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k := []*Kernel{NewKernel("a", eng, prof), NewKernel("b", eng, prof), NewKernel("c", eng, prof)}
	ifs := []*EthernetIf{NewEthernet(k[0], sw), NewEthernet(k[1], sw), NewEthernet(k[2], sw)}
	binds := make([]*Binding, 3)
	for i, e := range ifs {
		b, err := e.BindFilter(nil, dpfFilter(0x7e))
		if err != nil {
			t.Fatal(err)
		}
		binds[i] = b
	}
	k[0].Spawn("sender", func(p *Process) {
		ifs[0].Broadcast(p, []byte{0x7e, 1, 2, 3})
	})
	eng.Run()
	if binds[0].Ring().Len() != 0 {
		t.Fatal("broadcast delivered to the sender")
	}
	for i := 1; i < 3; i++ {
		if binds[i].Ring().Len() != 1 {
			t.Fatalf("host %d got %d frames, want 1", i, binds[i].Ring().Len())
		}
	}
}

// TestSleepUntilOwnsOneTimer: a process woken before its deadline goes back
// to sleep on one timer, not two, and the deadline does not reach past
// SleepUntil into whatever the process blocks on next.
func TestSleepUntilOwnsOneTimer(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	k := newHost(eng, "h")
	var cond Cond
	var slept, signalled sim.Time
	sleeper := k.Spawn("sleeper", func(p *Process) {
		p.SleepUntil(10000)
		slept = p.K.Now()
		cond.WaitTimeout(p, 1_000_000)
		signalled = p.K.Now()
	})
	eng.Schedule(1000, func() { sleeper.Wake(0) })
	eng.RunUntil(5000)
	if slept != 0 {
		t.Fatalf("SleepUntil(10000) returned at %d after an early Wake", slept)
	}
	if n := eng.Pending(); n != 1 {
		t.Fatalf("%d events pending after the early Wake, want the one re-armed timer", n)
	}
	eng.RunUntil(15000)
	if slept < 10000 || slept > 11000 {
		t.Fatalf("SleepUntil(10000) returned at %d", slept)
	}
	if signalled != 0 || len(cond.waiters) != 1 {
		t.Fatalf("the cancelled timer woke the later Cond.WaitTimeout at %d", signalled)
	}
	eng.Schedule(0, func() { cond.Broadcast(0) })
	eng.Run()
	if signalled < 15000 || signalled >= 1_000_000 {
		t.Fatalf("Cond.WaitTimeout returned at %d, broadcast at 15000", signalled)
	}
}

// TestSleepUntilAllocatesNothing: the timer carries the process as its
// argument, so the steady-state call (once per arrival in every overload
// cell) builds no closure.
func TestSleepUntilAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	k := newHost(eng, "h")
	ticks := 0
	k.Spawn("ticker", func(p *Process) {
		for next := sim.Time(1000); ; next += 1000 {
			p.SleepUntil(next)
			ticks++
		}
	})
	eng.RunUntil(10500)
	before := ticks
	if allocs := testing.AllocsPerRun(100, func() { eng.RunFor(1000) }); allocs != 0 {
		t.Fatalf("SleepUntil allocates %.1f times per call", allocs)
	}
	if ticks-before != 101 {
		t.Fatalf("%d ticks in 101 periods", ticks-before)
	}
}
