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
	rt := k1.Us(done) / iters
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
			e := b.Ring.PollRecv(p)
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
			e := b.Ring.PollRecv(p)
			p.Compute(sim.Time(p.K.Prof.BufferMgmtCycles))
			b.Free(e.BufIndex)
		}
		total = p.K.Now() - start
	})
	eng.Run()
	return k1.Us(total) / float64(iters)
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
			en := b.Ring.PollRecv(p)
			buf := p.K.Bytes(en.Addr, 2*en.Len)
			frame := make([]byte, en.Len)
			Unstripe(frame, buf, en.Len)
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
			en := b.Ring.PollRecv(p)
			p.Compute(sim.Time(p.K.Prof.BufferMgmtCycles))
			b.Free(en.BufIndex)
		}
		total = p.K.Now() - start
	})
	eng.Run()
	rt := k1.Us(total) / iters
	if rt < 296 || rt > 322 {
		t.Fatalf("Ethernet RT = %.1f us, want ~309 (Table I)", rt)
	}
}

func TestPollRecvSingleProcessPromptness(t *testing.T) {
	// A lone polling process must see a message within a few microseconds
	// of the ring push, not a quantum later.
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	r := &Ring{k: k}
	var sawAt sim.Time
	k.Spawn("poller", func(p *Process) {
		e := r.PollRecv(p)
		_ = e
		sawAt = p.K.Now()
	})
	eng.Schedule(10000, func() { r.push(RingEntry{Len: 4}, 0) })
	eng.Run()
	lag := k.Us(sawAt - 10000)
	if lag < 0.5 || lag > 5 {
		t.Fatalf("polling lag = %.2f us, want ~1.5", lag)
	}
}

func TestWaitRecvChargesWakePath(t *testing.T) {
	// A blocked receiver pays the scheduling + context-switch path: ~60+ us.
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	r := &Ring{k: k}
	var sawAt sim.Time
	k.Spawn("sleeper", func(p *Process) {
		e := r.WaitRecv(p)
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
	lag := k.Us(sawAt - 50000)
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
	r := &Ring{k: k}
	var sawAt sim.Time
	k.Spawn("sleeper", func(p *Process) {
		e := r.WaitRecv(p)
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
	lag := k.Us(sawAt - 50000)
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
	if b.Ring.Len() != 2 {
		t.Fatalf("ring has %d entries, want 2", b.Ring.Len())
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
	for _, n := range []int{1, 15, 16, 17, 100, 1514} {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(i * 7)
		}
		buf := make([]byte, 2*(n+StripeChunk))
		Stripe(buf, frame)
		out := make([]byte, n)
		Unstripe(out, buf, n)
		for i := range frame {
			if out[i] != frame[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
		// Verify the layout: data byte i lives at StripedIndex(i).
		for i := 0; i < n; i++ {
			if buf[StripedIndex(i)] != frame[i] {
				t.Fatalf("n=%d: StripedIndex(%d) wrong", n, i)
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
	if bA.Ring.Len() != 1 || bB.Ring.Len() != 1 {
		t.Fatalf("ring lengths %d/%d, want 1/1", bA.Ring.Len(), bB.Ring.Len())
	}
	if e2.Rx.NoMatch != 1 {
		t.Fatalf("Rx.NoMatch = %d, want 1", e2.Rx.NoMatch)
	}
	en, _ := bA.Ring.TryRecv()
	got := make([]byte, en.Len)
	Unstripe(got, k2.Bytes(en.Addr, 2*en.Len), en.Len)
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
	if innocent.Ring.Len() != 1 || e2.Rx.NoMatch != 1 {
		t.Fatalf("innocent ring holds %d frames, %d dropped for no filter; want 1 and 1",
			innocent.Ring.Len(), e2.Rx.NoMatch)
	}
}

// TestBindFilterIsOneAllocation: the binding carries its ring, and the
// engine and the binding table grow by amortised doubling. mega-setup
// makes 262 144 of these, so the size is pinned too: 144 bytes is a
// malloc size class, and one more word moves every binding to the next.
func TestBindFilterIsOneAllocation(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	e := NewEthernet(NewKernel("rx", eng, prof), netdev.NewSwitch(eng, prof, netdev.EthernetConfig()))
	f := dpf.NewFilter().Eq32(0, 0)
	var b *Binding
	allocs := testing.AllocsPerRun(2000, func() {
		f.Atoms[0].Value++
		var err error
		if b, err = e.BindFilter(nil, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("BindFilter: %v allocations per call, want 1", allocs)
	}
	if size := unsafe.Sizeof(*b); size > 144 {
		t.Errorf("Binding is %d bytes, want at most 144", size)
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
	us := k2.Us(ranAt)
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
				e := b.Ring.PollRecv(p)
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

func TestCondSignalWakesOne(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	var cond Cond
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Process) {
			cond.Wait(p)
			woken++
		})
	}
	eng.Schedule(1000, func() { cond.Signal(0) })
	eng.RunUntil(100000)
	if woken != 1 {
		t.Fatalf("Signal woke %d, want 1", woken)
	}
	if cond.Waiters() != 2 {
		t.Fatalf("waiters = %d, want 2", cond.Waiters())
	}
	eng.Schedule(0, func() { cond.Broadcast(0) })
	eng.RunUntil(200000)
	if woken != 3 {
		t.Fatalf("Broadcast left %d unwoken", 3-woken)
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
	eng.Schedule(2000, func() { cond.Signal(0) })
	eng.Run()
	if !signalled {
		t.Fatal("signal within deadline reported as timeout")
	}
	if !timedOut {
		t.Fatal("expired wait did not report timeout")
	}
	if cond.Waiters() != 0 {
		t.Fatalf("stale waiters: %d", cond.Waiters())
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
	if b.Ring.Len() != EthRxBuffers {
		t.Fatalf("ring = %d, want %d", b.Ring.Len(), EthRxBuffers)
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
	if binds[0].Ring.Len() != 0 {
		t.Fatal("broadcast delivered to the sender")
	}
	for i := 1; i < 3; i++ {
		if binds[i].Ring.Len() != 1 {
			t.Fatalf("host %d got %d frames, want 1", i, binds[i].Ring.Len())
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
		cond.Wait(p)
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
	if signalled != 0 || cond.Waiters() != 1 {
		t.Fatalf("the cancelled timer woke the later Cond.Wait at %d", signalled)
	}
	eng.Schedule(0, func() { cond.Signal(0) })
	eng.Run()
	if signalled < 15000 {
		t.Fatalf("Cond.Wait returned at %d, signalled at 15000", signalled)
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
