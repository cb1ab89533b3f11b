package core

import (
	"bytes"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/pipe"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// scribbleASH builds a handler that mutates application memory: it stores
// a run of words into the data segment, copies a piece of the message in,
// and consumes the message. A forced abort partway through must undo all
// of it.
func scribbleASH(segBase uint32) *vcode.Program {
	b := vcode.NewBuilder("scribble")
	msg, base, val := b.Temp(), b.Temp(), b.Temp()
	b.Mov(msg, vcode.RArg0)
	b.MovI(base, int32(segBase))
	for i := 0; i < 8; i++ {
		b.MovI(val, int32(0x1111*(i+1)))
		b.St32(base, int32(4*i), val)
	}
	// Trusted bulk copy from the message into the segment (exercises the
	// pre-imaged fast path in the journal).
	b.Mov(vcode.RArg0, msg)
	b.MovI(vcode.RArg1, int32(segBase+64))
	b.MovI(vcode.RArg2, 16)
	b.Call("ash_copy")
	b.MovI(vcode.RRet, 0) // consumed
	b.Ret()
	return b.MustAssemble()
}

// abortWorld wires a scribble handler on the server and returns the
// pieces the abort tests poke at.
type abortWorld struct {
	tb      *testbed
	owner   *aegis.Process
	seg     aegis.Segment
	ash     *ASH
	sb      *aegis.Binding
	payload []byte
}

func newAbortWorld(t *testing.T) *abortWorld {
	t.Helper()
	tb := newTestbed(t)
	w := &abortWorld{tb: tb}
	w.owner = tb.k2.Spawn("app", func(p *aegis.Process) {})
	w.seg = w.owner.AS.MustAlloc(4096, "data")
	// Pre-existing application state the abort must preserve.
	segBytes := w.owner.AS.MustBytes(w.seg.Base, int(w.seg.Len))
	for i := range segBytes {
		segBytes[i] = byte(i*13 + 5)
	}
	w.ash = tb.sys.MustDownload(w.owner, scribbleASH(w.seg.Base), Options{})
	sb, err := tb.a2.BindVC(w.owner, 9, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	w.sb = sb
	w.ash.Attach(sb)
	w.payload = make([]byte, 64)
	for i := range w.payload {
		w.payload[i] = byte(0xa0 + i)
	}
	return w
}

// snapshot captures the state that an involuntary abort must restore.
func (w *abortWorld) snapshot() ([]byte, [vcode.NumRegs]uint32) {
	seg := append([]byte(nil), w.owner.AS.MustBytes(w.seg.Base, int(w.seg.Len))...)
	return seg, w.ash.machine.Regs
}

// checkRollback asserts memory and registers are bit-identical to the
// snapshot and that the message fell back to the ring exactly once.
func (w *abortWorld) checkRollback(t *testing.T, seg []byte, regs [vcode.NumRegs]uint32) {
	t.Helper()
	if got := w.owner.AS.MustBytes(w.seg.Base, int(w.seg.Len)); !bytes.Equal(got, seg) {
		for i := range got {
			if got[i] != seg[i] {
				t.Fatalf("application memory differs after abort: first at +%d (%#x != %#x)",
					i, got[i], seg[i])
			}
		}
	}
	if w.ash.machine.Regs != regs {
		t.Fatalf("persistent registers differ after abort:\n got %v\nwant %v",
			w.ash.machine.Regs, regs)
	}
	if n := w.sb.Ring.Len(); n != 1 {
		t.Fatalf("ring holds %d entries after abort, want exactly 1 (fallback delivery)", n)
	}
	e, _ := w.sb.Ring.TryRecv()
	got := w.owner.AS.MustBytes(e.Addr, e.Len)
	if !bytes.Equal(got, w.payload) {
		t.Fatalf("fallback-delivered message corrupted: %x != %x", got, w.payload)
	}
}

// TestBudgetAbortRollsBackAndFallsBack forces an instruction-budget abort
// mid-handler and checks the full recovery contract: memory and registers
// roll back bit-identically, and the message is re-vectored onto the
// default delivery path exactly once.
func TestBudgetAbortRollsBackAndFallsBack(t *testing.T) {
	w := newAbortWorld(t)
	// Scribble some persistent-register state the rollback must keep.
	w.ash.machine.Regs[16] = 0xdeadbeef
	w.ash.machine.Regs[17] = 0x12345678
	seg, regs := w.snapshot()

	w.tb.sys.InjectAbort = func(string) (AbortMode, int64) { return AbortBudget, 12 }
	w.tb.a1.KernelSend(w.tb.a2.Addr(), 9, w.payload)
	w.tb.eng.Run()

	if w.ash.InvolAborts != 1 {
		t.Fatalf("InvolAborts = %d, want 1", w.ash.InvolAborts)
	}
	if w.ash.InvoluntaryFault == nil || w.ash.InvoluntaryFault.Kind != vcode.FaultBudget {
		t.Fatalf("fault = %v, want budget fault", w.ash.InvoluntaryFault)
	}
	if w.tb.sys.InvoluntaryAborts != 1 || w.tb.sys.AbortFallbacks != 1 {
		t.Fatalf("system counters: aborts=%d fallbacks=%d, want 1/1",
			w.tb.sys.InvoluntaryAborts, w.tb.sys.AbortFallbacks)
	}
	w.checkRollback(t, seg, regs)
}

// TestTimerAbortRollsBackAndFallsBack is the same contract under the
// two-tick watchdog firing mid-handler (modelled as a tiny cycle limit).
func TestTimerAbortRollsBackAndFallsBack(t *testing.T) {
	w := newAbortWorld(t)
	w.ash.machine.Regs[20] = 0xfeedface
	seg, regs := w.snapshot()

	w.tb.sys.InjectAbort = func(string) (AbortMode, int64) { return AbortTimer, 30 }
	w.tb.a1.KernelSend(w.tb.a2.Addr(), 9, w.payload)
	w.tb.eng.Run()

	if w.ash.InvolAborts != 1 {
		t.Fatalf("InvolAborts = %d, want 1", w.ash.InvolAborts)
	}
	w.checkRollback(t, seg, regs)
}

// TestAbortTripThresholdDeinstallsHandler verifies the trip circuit: a
// handler that keeps aborting involuntarily is de-installed after the
// threshold, and later messages go straight to the default path — every
// message is still delivered exactly once.
func TestAbortTripThresholdDeinstallsHandler(t *testing.T) {
	w := newAbortWorld(t)
	w.tb.sys.AbortTripThreshold = 3
	w.tb.sys.InjectAbort = func(string) (AbortMode, int64) { return AbortBudget, 12 }
	const msgs = 6
	for i := 0; i < msgs; i++ {
		w.tb.a1.KernelSend(w.tb.a2.Addr(), 9, w.payload)
	}
	w.tb.eng.Run()

	if !w.ash.Tripped {
		t.Fatal("handler did not trip")
	}
	if w.tb.sys.TrippedHandlers != 1 {
		t.Fatalf("TrippedHandlers = %d, want 1", w.tb.sys.TrippedHandlers)
	}
	if w.sb.Handler != nil {
		t.Fatal("tripped handler still installed on the binding")
	}
	if w.ash.InvolAborts != 3 {
		t.Fatalf("InvolAborts = %d, want exactly the trip threshold (3)", w.ash.InvolAborts)
	}
	if w.ash.Invocations != 3 {
		t.Fatalf("Invocations = %d after trip, want 3 (de-installed handler must not run)",
			w.ash.Invocations)
	}
	if n := w.sb.Ring.Len(); n != msgs {
		t.Fatalf("ring holds %d entries, want %d (every message delivered exactly once)", n, msgs)
	}
}

// randomHandler builds a random straight-line program of loads, stores,
// and ALU ops against the data segment, ending by consuming the message.
// Every store's effect must be undone by a forced abort.
func randomHandler(r *sim.Rand, segBase uint32) *vcode.Program {
	b := vcode.NewBuilder("random")
	msg, base := b.Temp(), b.Temp()
	t1, t2 := b.Temp(), b.Temp()
	b.Mov(msg, vcode.RArg0)
	b.MovI(base, int32(segBase))
	b.MovI(t1, int32(r.Uint32()&0x7fffffff))
	n := 20 + r.Intn(20)
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0:
			b.St32(base, int32(4*r.Intn(64)), t1)
		case 1:
			b.St8(base, int32(r.Intn(256)), t1)
		case 2:
			b.St16(base, int32(2*r.Intn(128)), t1)
		case 3:
			b.Ld32(t2, base, int32(4*r.Intn(64)))
		case 4:
			b.AddU(t1, t1, t2)
		case 5:
			b.XorI(t1, t1, int32(r.Uint32()&0xffff))
		}
	}
	// A trusted bulk copy in some programs, so the property also covers
	// the pre-imaged journal path.
	if r.Prob(0.5) {
		b.Mov(vcode.RArg0, msg)
		b.MovI(vcode.RArg1, int32(segBase+1024+uint32(4*r.Intn(64))))
		b.MovI(vcode.RArg2, int32(8+4*r.Intn(8)))
		b.Call("ash_copy")
	}
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// TestAbortRollbackProperty runs the rollback contract over a population
// of random handlers and random abort points: whatever the handler was
// doing when the system pulled the plug, application memory, persistent
// registers, and the message must come back bit-identical, with the
// message delivered once via the ring.
func TestAbortRollbackProperty(t *testing.T) {
	r := sim.NewRand(0x5eed)
	for trial := 0; trial < 24; trial++ {
		tb := newTestbed(t)
		owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
		seg := owner.AS.MustAlloc(4096, "data")
		segBytes := owner.AS.MustBytes(seg.Base, int(seg.Len))
		for i := range segBytes {
			segBytes[i] = byte(r.Uint32())
		}
		ash := tb.sys.MustDownload(owner, randomHandler(r, seg.Base), Options{})
		sb, err := tb.a2.BindVC(owner, 9, 8, 4096)
		if err != nil {
			t.Fatal(err)
		}
		ash.Attach(sb)
		for i := range ash.machine.Regs[8:] {
			ash.machine.Regs[8+i] = r.Uint32()
		}
		payload := make([]byte, 48)
		for i := range payload {
			payload[i] = byte(r.Uint32())
		}
		segWant := append([]byte(nil), segBytes...)
		regsWant := ash.machine.Regs

		// The random program has at least 23 static instructions, so a
		// budget in [2, 21] always aborts it partway.
		budget := int64(2 + r.Intn(20))
		tb.sys.InjectAbort = func(string) (AbortMode, int64) { return AbortBudget, budget }
		tb.a1.KernelSend(tb.a2.Addr(), 9, payload)
		tb.eng.Run()

		if ash.InvolAborts != 1 {
			t.Fatalf("trial %d (budget %d): InvolAborts = %d, want 1",
				trial, budget, ash.InvolAborts)
		}
		if got := owner.AS.MustBytes(seg.Base, int(seg.Len)); !bytes.Equal(got, segWant) {
			t.Fatalf("trial %d (budget %d): memory not rolled back", trial, budget)
		}
		if ash.machine.Regs != regsWant {
			t.Fatalf("trial %d (budget %d): registers not rolled back", trial, budget)
		}
		if n := sb.Ring.Len(); n != 1 {
			t.Fatalf("trial %d: ring holds %d entries, want 1", trial, n)
		}
		e, _ := sb.Ring.TryRecv()
		if got := owner.AS.MustBytes(e.Addr, e.Len); !bytes.Equal(got, payload) {
			t.Fatalf("trial %d: fallback message corrupted", trial)
		}
	}
}

// TestZeroLengthTransfersSucceedAnywhere pins what the aggregated checks do
// with nothing to check: ash_copy and ash_dilp of zero bytes name no byte,
// so they succeed at any address — and the same calls for one word at those
// addresses are an involuntary abort.
func TestZeroLengthTransfersSucceedAnywhere(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	pl := pipe.NewList(1)
	if _, _, err := pipe.Cksum(pl); err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Compile(pl, pipe.Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	engID := tb.sys.RegisterEngine(eng)

	const wildSrc, wildDst = 0xdead0000, 0x00000040
	b := vcode.NewBuilder("nothing-anywhere")
	n := b.Temp()
	b.Ld32(n, vcode.RArg0, 0) // the length comes in the message
	b.MovI(vcode.RArg0, wildSrc-(1<<32))
	b.MovI(vcode.RArg1, wildDst)
	b.Mov(vcode.RArg2, n)
	b.Call("ash_copy")
	b.MovI(vcode.RArg0, int32(engID))
	b.MovI(vcode.RArg1, wildSrc-(1<<32))
	b.MovI(vcode.RArg2, wildDst)
	b.Mov(vcode.RArg3, n)
	b.Call("ash_dilp")
	b.MovI(vcode.RRet, 0)
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)

	tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{0, 0, 0, 0})
	tb.eng.Run()
	if ash.InvoluntaryFault != nil || ash.Invocations != 1 || sb.Ring.Len() != 0 {
		t.Fatalf("zero-length transfers at wild addresses: fault %v, %d invocations, %d messages left to the user",
			ash.InvoluntaryFault, ash.Invocations, sb.Ring.Len())
	}
	tb.a1.KernelSend(tb.a2.Addr(), 4, []byte{0, 0, 0, 4})
	tb.eng.Run()
	if f := ash.InvoluntaryFault; f == nil || f.Kind != vcode.FaultBadAddr || f.Addr != wildSrc {
		t.Fatalf("a one-word copy from %#x: fault %v, want a bad address there", uint32(wildSrc), f)
	}
}

// TestStreamedLoopRollsBack: a handler's own copy loop — uninstrumented, so
// vcode's streaming executor runs it over the journal on the owner's address
// space — is pre-imaged like any other store. Aborted between two batches,
// it leaves the destination as it found it.
func TestStreamedLoopRollsBack(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "data")
	data := owner.AS.MustBytes(seg.Base, 256)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}

	b := vcode.NewBuilder("copy-loop")
	dst, idx, w := b.Temp(), b.Temp(), b.Temp()
	head := b.NewLabel()
	b.MovI(dst, int32(seg.Base))
	b.MovI(idx, 0)
	b.Bind(head)
	b.Ld32X(w, vcode.RArg0, idx)
	b.St32X(dst, idx, w)
	b.AddIU(idx, idx, 4)
	b.BltU(idx, vcode.RArg1, head)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{Unsafe: true})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(0xa0 + i)
	}

	// Enough budget for the first iteration and a batch of streamed ones,
	// not for the loop.
	before := bytes.Clone(data)
	tb.sys.InjectAbort = func(string) (AbortMode, int64) { return AbortBudget, 2 + 4*40 }
	tb.a1.KernelSend(tb.a2.Addr(), 4, payload)
	tb.eng.Run()
	if ash.InvolAborts != 1 || ash.machine.Streamed == 0 {
		t.Fatalf("InvolAborts = %d, Streamed = %d; want an abort after the executor had run", ash.InvolAborts, ash.machine.Streamed)
	}
	if !bytes.Equal(data, before) {
		t.Fatal("the aborted loop left bytes in the destination")
	}

	tb.sys.InjectAbort = nil
	tb.a1.KernelSend(tb.a2.Addr(), 4, payload)
	tb.eng.Run()
	if want := int64(4 * (len(payload)/4 - 1)); ash.machine.Streamed != want || !bytes.Equal(data, payload) {
		t.Fatalf("clean run: Streamed = %d, want %d; copied correctly: %v", ash.machine.Streamed, want, bytes.Equal(data, payload))
	}
}

// TestDILPDestinationRollsBack: an engine run by ash_dilp writes its
// destination through the kernel's memory, not through the handler's, so
// the call itself has the handler's memory pre-image the range. Aborted
// after the call returned, the handler leaves the destination untouched.
func TestDILPDestinationRollsBack(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "data")
	data := owner.AS.MustBytes(seg.Base, 64)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	before := bytes.Clone(data)
	pl := pipe.NewList(1)
	if _, _, err := pipe.Cksum(pl); err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Compile(pl, pipe.Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	engID := tb.sys.RegisterEngine(eng)

	b := vcode.NewBuilder("dilp-then-abort")
	b.Mov(vcode.RArg3, vcode.RArg1) // length
	b.Mov(vcode.RArg1, vcode.RArg0) // src: the message
	b.MovI(vcode.RArg0, int32(engID))
	b.MovI(vcode.RArg2, int32(seg.Base))
	b.Call("ash_dilp")
	const throughTheCall = 5
	b.MovI(vcode.RRet, 0)
	b.Ret()
	ash := tb.sys.MustDownload(owner, b.MustAssemble(), Options{Unsafe: true})
	sb, _ := tb.a2.BindVC(owner, 4, 8, 4096)
	ash.Attach(sb)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(0xa0 + i)
	}

	tb.sys.InjectAbort = func(string) (AbortMode, int64) { return AbortBudget, throughTheCall }
	tb.a1.KernelSend(tb.a2.Addr(), 4, payload)
	tb.eng.Run()
	if ash.InvolAborts != 1 || !bytes.Equal(data, before) {
		t.Fatalf("InvolAborts = %d, destination restored: %v", ash.InvolAborts, bytes.Equal(data, before))
	}
	tb.sys.InjectAbort = nil
	tb.a1.KernelSend(tb.a2.Addr(), 4, payload)
	tb.eng.Run()
	if !bytes.Equal(data, payload) {
		t.Fatal("the unaborted handler did not move the payload: the test above proves nothing")
	}
}
