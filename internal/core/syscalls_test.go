package core

import (
	"testing"

	"ashs/internal/aegis"
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
