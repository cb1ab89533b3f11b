package core

import (
	"encoding/binary"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// msgLoadASH stores the first word of its message, read through the
// ash_msg_load entry point, at out.
func msgLoadASH(out uint32) *vcode.Program {
	b := vcode.NewBuilder("msg-load")
	dst := b.Temp()
	b.MovI(dst, int32(out))
	b.MovI(vcode.RArg0, 0)
	b.Call("ash_msg_load")
	b.St32(dst, 0, vcode.RRet)
	b.MovI(vcode.RRet, 0) // consumed
	b.Ret()
	return b.MustAssemble()
}

// TestHandlersShareOneSyscallTable: every handler of a System runs over the
// System's one entry-point table, and an entry point that reads the message
// reads the running invocation's, whichever handler ran before.
func TestHandlersShareOneSyscallTable(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "data")
	a := tb.sys.MustDownload(owner, msgLoadASH(seg.Base), Options{})
	b := tb.sys.MustDownload(owner, msgLoadASH(seg.Base+4), Options{})
	for _, h := range []*ASH{a, b} {
		if syms := h.machine.Syms; len(syms) == 0 || len(syms) != len(tb.sys.syms) || &syms[0] != &tb.sys.syms[0] {
			t.Fatalf("%s runs over its own table of %d entries, not the System's %d", h.Name, len(syms), len(tb.sys.syms))
		}
	}

	buf, err := tb.k2.AllocPhys(8, "messages")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 6; i++ {
		h, at, word := a, seg.Base, 0xa0000000+i
		if i%2 == 1 {
			h, at, word = b, seg.Base+4, 0xb0000000+i
		}
		msg := buf + 4*(i%2)
		if err := vcode.Store32(tb.k2.Mem, msg, word); err != nil {
			t.Fatal(err)
		}
		mc := aegis.SyntheticMsg(tb.k2, owner, aegis.RingEntry{Addr: msg, Len: 4})
		if d := h.HandleMsg(mc); d != aegis.DispConsumed {
			t.Fatalf("invocation %d: disposition %v, fault %v", i, d, h.InvoluntaryFault)
		}
		if got, err := vcode.Load32(owner.AS, at); err != nil || got != word {
			t.Fatalf("invocation %d of %s read %#x (%v), want its own message's %#x", i, h.Name, got, err, word)
		}
	}
	if tb.sys.curMC != nil {
		t.Fatal("the System still holds a message after its handlers returned")
	}
}

// landedAt notes where each message landed before handing it on.
type landedAt struct {
	next aegis.MsgHandler
	addr uint32
}

func (l *landedAt) HandleMsg(mc *aegis.MsgCtx) aegis.Disposition {
	l.addr = mc.Entry.Addr
	return l.next.HandleMsg(mc)
}

// TestMsgLoadReadsThroughTheStripe: a vcode handler bound to an Ethernet
// filter reads its message through ash_msg_load, and gets the frame's
// bytes at every offset, not the pad lines the striping DMA left between
// its 16-byte data lines; the cache is charged for the lines it read.
func TestMsgLoadReadsThroughTheStripe(t *testing.T) {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1, k2 := aegis.NewKernel("client", eng, prof), aegis.NewKernel("server", eng, prof)
	e1, e2 := aegis.NewEthernet(k1, sw), aegis.NewEthernet(k2, sw)
	sys := NewSystem(k2)
	owner := k2.Spawn("app", func(p *aegis.Process) {})
	out := owner.AS.MustAlloc(4096, "words")

	offsets := []int32{0, 16, 20, 44}
	b := vcode.NewBuilder("msg-load-striped")
	dst := b.Temp()
	b.MovI(dst, int32(out.Base))
	for j, off := range offsets {
		b.MovI(vcode.RArg0, off)
		b.Call("ash_msg_load")
		b.St32(dst, int32(4*j), vcode.RRet)
	}
	b.MovI(vcode.RRet, 0) // consumed
	b.Ret()
	ash := sys.MustDownload(owner, b.MustAssemble(), Options{})
	bind, err := e2.BindFilter(owner, dpf.NewFilter().Eq8(0, 0x01))
	if err != nil {
		t.Fatal(err)
	}
	ash.Attach(bind)
	landed := &landedAt{next: bind.Handler}
	bind.Handler = landed

	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i + 1)
	}
	e1.KernelSend(e2.Addr(), 0, frame)
	eng.Run()
	if ash.Invocations != 1 {
		t.Fatalf("%d invocations, want 1 (fault %v)", ash.Invocations, ash.InvoluntaryFault)
	}
	for j, off := range offsets {
		got, err := vcode.Load32(owner.AS, out.Base+uint32(4*j))
		if want := binary.BigEndian.Uint32(frame[off:]); err != nil || got != want {
			t.Errorf("ash_msg_load(%d) = %#08x (%v), want %#08x", off, got, err, want)
		}
	}
	// The driver flushed the landing area; the loads brought in the data
	// lines holding bytes 0, 16-23 and 44-47, and no pad line.
	for line, want := range []bool{true, false, true, false, true} {
		if got := k2.Cache.Resident(landed.addr + uint32(16*line)); got != want {
			t.Errorf("line %d of the buffer resident %v, want %v", line, got, want)
		}
	}
}
