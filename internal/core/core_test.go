package core

import (
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/pipe"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// testbed is a two-host AN2 world with an ASH system on the server.
type testbed struct {
	eng      *sim.Engine
	k1, k2   *aegis.Kernel
	a1, a2   *aegis.AN2If
	sys      *System
	clientRx *aegis.Binding
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("client", eng, prof)
	k2 := aegis.NewKernel("server", eng, prof)
	tb := &testbed{
		eng: eng, k1: k1, k2: k2,
		a1: aegis.NewAN2(k1, sw), a2: aegis.NewAN2(k2, sw),
	}
	tb.sys = NewSystem(k2)
	return tb
}

// incrementASH builds the remote-increment handler: read the counter word
// at a fixed offset in the application's data segment, add the increment
// carried in the message, store it back, and reply with the new value.
func incrementASH(counterAddr uint32, replyTo func() (int, int)) *vcode.Program {
	b := vcode.NewBuilder("remote-increment")
	msg, cnt, val, inc := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.Mov(msg, vcode.RArg0) // message base (RArg0 is clobbered for the call)
	b.MovI(cnt, int32(counterAddr))
	b.Ld32(inc, msg, 0) // increment amount from the message
	b.Ld32(val, cnt, 0) // current counter
	b.AddU(val, val, inc)
	b.St32(cnt, 0, val) // store updated counter
	// Build the reply in the message buffer (vectoring: reuse in place).
	b.St32(msg, 0, val)
	dst, vc := replyTo()
	b.MovI(vcode.RArg0, int32(dst))
	b.MovI(vcode.RArg1, int32(vc))
	b.Mov(vcode.RArg2, msg)
	b.MovI(vcode.RArg3, 4)
	b.Call("ash_send")
	b.MovI(vcode.RRet, 0) // consumed
	b.Ret()
	return b.MustAssemble()
}

func TestDownloadRejectsUnsafeCode(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	b := vcode.NewBuilder("bad")
	b.Float(vcode.OpFAdd, vcode.RRet, vcode.RZero, vcode.RZero)
	b.Ret()
	if _, err := tb.sys.Download(owner, b.MustAssemble(), Options{}); err == nil {
		t.Fatal("floating-point handler downloaded")
	}
	tb.eng.Run()
}

func TestDownloadRequiresOwner(t *testing.T) {
	tb := newTestbed(t)
	b := vcode.NewBuilder("ok")
	b.Ret()
	if _, err := tb.sys.Download(nil, b.MustAssemble(), Options{}); err == nil {
		t.Fatal("ownerless handler downloaded")
	}
}

// runIncrement wires the increment ASH on the server and ping-pongs from
// an in-kernel client endpoint, returning mean RT in us and the ASH.
func runIncrement(t *testing.T, unsafe bool, iters int) (float64, *ASH, *testbed) {
	t.Helper()
	tb := newTestbed(t)

	var counterSeg aegis.Segment
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {
		// The application pins a data page for the handler and then goes
		// about its business (here: nothing).
	})
	counterSeg = owner.AS.MustAlloc(4096, "counters")

	ash := tb.sys.MustDownload(owner,
		incrementASH(counterSeg.Base, func() (int, int) { return 0, 9 }),
		Options{Unsafe: unsafe})
	sb, err := tb.a2.BindVC(owner, 9, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ash.Attach(sb)

	// Client: in-kernel endpoint to isolate the server-side path.
	cb, err := tb.a1.BindVC(nil, 9, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var done sim.Time
	cb.Handler = aegis.KernelRx(func(mc *aegis.MsgCtx) {
		count++
		if count < iters {
			mc.Send(mc.Src, mc.VC, []byte{0, 0, 0, 1})
		} else {
			done = mc.When()
		}
	})
	tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{0, 0, 0, 1})
	tb.eng.Run()
	if count != iters {
		t.Fatalf("completed %d/%d round trips (last fault: %v)", count, iters, ash.InvoluntaryFault)
	}
	// Verify the counter really incremented (control initiation worked).
	got, err := vcode.Load32(owner.AS, counterSeg.Base)
	if err != nil || got != uint32(iters) {
		t.Fatalf("counter = %d, %v; want %d", got, err, iters)
	}
	return tb.k1.Us(done) / float64(iters), ash, tb
}

func TestIncrementASHUnsafe(t *testing.T) {
	rt, ash, _ := runIncrement(t, true, 10)
	if ash.Invocations != 10 {
		t.Fatalf("invocations = %d", ash.Invocations)
	}
	// In-kernel client side ~8 us + ASH side; full user-level client adds
	// more. The interesting property here is the ASH side: the server leg
	// must be within a few us of the in-kernel handler's.
	if rt < 100 || rt > 125 {
		t.Fatalf("unsafe ASH RT (in-kernel client) = %.1f us", rt)
	}
}

func TestSandboxingAddsSmallConstant(t *testing.T) {
	rtU, ashU, _ := runIncrement(t, true, 10)
	rtS, ashS, _ := runIncrement(t, false, 10)
	delta := rtS - rtU
	// Table V: sandboxing costs ~5 us per round trip (timer arms + added
	// instructions).
	if delta < 2 || delta > 10 {
		t.Fatalf("sandbox delta = %.2f us, want ~5 (Table V)", delta)
	}
	if ashS.LastInsns() <= ashU.LastInsns() {
		t.Fatalf("sandboxed insns %d not above unsafe %d", ashS.LastInsns(), ashU.LastInsns())
	}
	added := ashS.LastInsns() - ashU.LastInsns()
	// The paper reports 76 added instructions on a base of 90 for this
	// handler; ours should be the same order.
	if added < 15 || added > 120 {
		t.Fatalf("added dynamic instructions = %d, want tens", added)
	}
}

func TestVoluntaryAbortFallsBackToUser(t *testing.T) {
	tb := newTestbed(t)
	ringLen := -1
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})

	// A handler that rejects odd first bytes (voluntary abort).
	b := vcode.NewBuilder("picky")
	v, one := b.Temp(), b.Temp()
	b.Ld8(v, vcode.RArg0, 0)
	b.MovI(one, 1)
	b.And(v, v, one)
	b.Mov(vcode.RRet, v) // odd -> voluntary abort
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{})

	sb, err := tb.a2.BindVC(owner, 4, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ash.Attach(sb)

	tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{2, 0, 0, 0}) // even: consumed
	tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{3, 0, 0, 0}) // odd: to user
	tb.eng.Run()
	ringLen = sb.Ring.Len()
	if ringLen != 1 {
		t.Fatalf("ring length = %d, want 1 (one voluntary abort)", ringLen)
	}
	if ash.VoluntaryAborts != 1 {
		t.Fatalf("voluntary aborts = %d, want 1", ash.VoluntaryAborts)
	}
}

func TestInvoluntaryAbortOnWildWrite(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	b := vcode.NewBuilder("wild")
	r := b.Temp()
	b.MovI(r, 0x7fffff0)
	b.St32(r, 0, r)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)

	tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{1, 2, 3, 4})
	tb.eng.Run()
	if tb.sys.InvoluntaryAborts != 1 {
		t.Fatalf("involuntary aborts = %d, want 1", tb.sys.InvoluntaryAborts)
	}
	if ash.InvoluntaryFault == nil || ash.InvoluntaryFault.Kind != vcode.FaultBadAddr {
		t.Fatalf("fault = %v", ash.InvoluntaryFault)
	}
	// The message fell back to the user path.
	if sb.Ring.Len() != 1 {
		t.Fatalf("ring length = %d, want 1", sb.Ring.Len())
	}
}

func TestInvoluntaryAbortOnNonResidentPage(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "data")
	owner.AS.Unpin(seg.Base)

	b := vcode.NewBuilder("touch-absent")
	r := b.Temp()
	b.MovI(r, int32(seg.Base))
	b.Ld32(vcode.RRet, r, 0)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)

	tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{1})
	tb.eng.Run()
	if ash.InvoluntaryFault == nil || ash.InvoluntaryFault.Kind != vcode.FaultBadAddr {
		t.Fatalf("fault = %v, want bad address (absent page)", ash.InvoluntaryFault)
	}
}

func TestRunawayASHAbortedByWatchdog(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	b := vcode.NewBuilder("spin")
	// Spin via a conditional branch that always retakes the loop, so the
	// assembler's appended ret stays reachable (the hardened verifier
	// rejects unreachable code).
	r := b.Temp()
	b.MovI(r, 1)
	top := b.NewLabel()
	b.Bind(top)
	b.Bne(r, vcode.RZero, top)
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)

	tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{1})
	tb.eng.Run()
	if ash.InvoluntaryFault == nil || ash.InvoluntaryFault.Kind != vcode.FaultBudget {
		t.Fatalf("fault = %v, want budget (two-tick watchdog)", ash.InvoluntaryFault)
	}
	// The watchdog bound: two clock ticks.
	maxCycles := 2 * sim.Time(tb.k2.Prof.ClockTickCycles)
	if ash.machine.Cycles > maxCycles+100 {
		t.Fatalf("ASH ran %d cycles past the watchdog", ash.machine.Cycles-maxCycles)
	}
}

func TestMessageVectoringViaTrustedCopy(t *testing.T) {
	// "An ASH can dynamically control where messages are copied in
	// memory": the handler reads a slot index from the message and copies
	// the payload into that slot of an application matrix.
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	matrix := owner.AS.MustAlloc(16*256, "matrix")

	b := vcode.NewBuilder("vectoring")
	slot, dst := b.Temp(), b.Temp()
	b.Ld32(slot, vcode.RArg0, 0) // slot index in first word
	b.MovI(dst, int32(matrix.Base))
	sh := b.Temp()
	b.SllI(sh, slot, 8) // slot * 256
	b.AddU(dst, dst, sh)
	// ash_copy(src = msg+4, dst, len = 256)
	b.AddIU(vcode.RArg1, vcode.RArg0, 0) // save msg base? (RArg0 still msg)
	b.AddIU(vcode.RArg0, vcode.RArg0, 4)
	b.Mov(vcode.RArg1, dst)
	b.MovI(vcode.RArg2, 256)
	b.Call("ash_copy")
	b.MovI(vcode.RRet, 0)
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)

	payload := make([]byte, 260)
	payload[3] = 7 // slot 7
	for i := 0; i < 256; i++ {
		payload[4+i] = byte(i)
	}
	tb.a1.KernelSend(tb.a2.Addr(), 4, payload)
	tb.eng.Run()
	if ash.InvoluntaryFault != nil {
		t.Fatal(ash.InvoluntaryFault)
	}
	got := owner.AS.MustBytes(matrix.Base+7*256, 256)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("matrix slot byte %d = %d", i, got[i])
		}
	}
}

func TestASHDILPChecksumsWhileCopying(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	dst := owner.AS.MustAlloc(4096, "appbuf")

	pl := pipe.NewList(1)
	_, _, err := pipe.Cksum(pl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Compile(pl, pipe.Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	engID := tb.sys.RegisterEngine(eng)

	b := vcode.NewBuilder("dilp-recv")
	b.MovI(vcode.RArg2, int32(dst.Base)) // careful with arg order below
	src := b.Temp()
	b.Mov(src, vcode.RArg0)
	n := b.Temp()
	b.Mov(n, vcode.RArg1)
	b.MovI(vcode.RArg0, int32(engID))
	b.Mov(vcode.RArg1, src)
	b.MovI(vcode.RArg2, int32(dst.Base))
	b.Mov(vcode.RArg3, n)
	b.Call("ash_dilp")
	// Stash the accumulator into the destination's last word via a store
	// so the test can see it... keep it simply: consume.
	b.MovI(vcode.RRet, 0)
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)

	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	tb.a1.KernelSend(tb.a2.Addr(), 4, payload)
	tb.eng.Run()
	if ash.InvoluntaryFault != nil {
		t.Fatal(ash.InvoluntaryFault)
	}
	got := owner.AS.MustBytes(dst.Base, 64)
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("DILP copy mismatch at %d", i)
		}
	}
}

func TestFuncASHSandboxChargesMore(t *testing.T) {
	run := func(sandboxed bool) sim.Time {
		tb := newTestbed(t)
		owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
		f := tb.sys.NewFuncASH(owner, "fh", sandboxed, func(c *Ctx) aegis.Disposition {
			c.Straightline(50, 10)
			return aegis.DispConsumed
		})
		sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
		f.Attach(sb)
		tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{1, 2, 3, 4})
		tb.eng.Run()
		return f.LastPathCost
	}
	unsafe := run(false)
	sandboxed := run(true)
	if sandboxed <= unsafe {
		t.Fatal("sandboxed FuncASH not charged more")
	}
	delta := sandboxed - unsafe
	// 2 timer arms (80) + prologue/epilogue (24) + 2*10 memops (20) = 124.
	if delta != 124 {
		t.Fatalf("sandbox delta = %d cycles, want 124", delta)
	}
}

func TestASHRunsWhenOwnerSuspended(t *testing.T) {
	// The headline property: the ASH handles the message at interrupt
	// time even though its application is not scheduled.
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {
		p.Compute(sim.Time(tb.k2.Prof.QuantumCycles) * 50)
	})
	// A competitor so the owner is genuinely descheduled sometimes.
	tb.k2.Spawn("other", func(p *aegis.Process) {
		p.Compute(sim.Time(tb.k2.Prof.QuantumCycles) * 50)
	})
	counter := owner.AS.MustAlloc(4096, "counter")
	ash := tb.sys.MustDownload(owner,
		incrementASH(counter.Base, func() (int, int) { return 0, 9 }), Options{})
	sb, _ := tb.a2.BindVC(owner, 9, 8, 4096)
	ash.Attach(sb)

	cb, _ := tb.a1.BindVC(nil, 9, 8, 4096)
	var rtt sim.Time
	var sent sim.Time
	cb.Handler = aegis.KernelRx(func(mc *aegis.MsgCtx) { rtt = mc.When() - sent })
	// Fire mid-simulation while both processes compute.
	tb.eng.Schedule(100000, func() {
		sent = tb.eng.Now()
		tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{0, 0, 0, 1})
	})
	tb.eng.RunUntil(100000 + 100*sim.Time(tb.k2.Prof.QuantumCycles))
	if rtt == 0 {
		t.Fatal("no reply")
	}
	us := tb.k1.Us(rtt)
	if us > 130 {
		t.Fatalf("RT with suspended owner = %.1f us — ASH waited for scheduling?", us)
	}
}

func TestLivelockDefenseThrottlesFlood(t *testing.T) {
	// Section VI-4: under a flood, the system refuses eager handler
	// execution beyond the process's share; excess messages take the
	// (lazy, fair) user-level path instead of starving everything else.
	tb := newTestbed(t)
	tb.sys.RatePerTick = 4
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	counter := owner.AS.MustAlloc(4096, "counter")
	ash := tb.sys.MustDownload(owner,
		incrementASH(counter.Base, func() (int, int) { return 0, 9 }), Options{})
	sb, _ := tb.a2.BindVC(owner, 9, 64, 4096)
	ash.Attach(sb)

	// Flood: 20 messages within one clock tick.
	for i := 0; i < 20; i++ {
		tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{0, 0, 0, 1})
	}
	tb.eng.RunUntil(sim.Time(tb.k2.Prof.ClockTickCycles) / 2)
	if ash.Invocations != 4 {
		t.Fatalf("handler ran %d times in one tick, limit 4", ash.Invocations)
	}
	if ash.Throttled != 16 {
		t.Fatalf("throttled %d, want 16", ash.Throttled)
	}
	if sb.Ring.Len() != 16 {
		t.Fatalf("ring has %d fallback messages, want 16", sb.Ring.Len())
	}

	// Next tick: the budget refreshes.
	tb.eng.RunUntil(sim.Time(tb.k2.Prof.ClockTickCycles) + 1000)
	tb.a1.KernelSend(tb.a2.Addr(), 9, []byte{0, 0, 0, 1})
	tb.eng.Run()
	if ash.Invocations != 5 {
		t.Fatalf("budget did not refresh: %d invocations", ash.Invocations)
	}
}
