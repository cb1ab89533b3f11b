package core

import (
	"encoding/binary"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/vcode"
	"ashs/internal/vcode/reopt"
)

// shardASH mirrors the crl shard-counter shape (core cannot import crl):
// a counted loop whose divide takes its modulus from the message. The
// static optimizer must keep the per-iteration zero check — the divisor's
// range is unknown until run time — so this is exactly the handler the
// profile-guided pass exists for.
func shardASH(bucketBase uint32) *vcode.Program {
	b := vcode.NewBuilder("shard-counter")
	msg, bkt := b.Temp(), b.Temp()
	mod, i, n, v, off, c := b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.Mov(msg, vcode.RArg0)
	b.MovI(bkt, int32(bucketBase))
	b.Ld32(mod, msg, 0) // modulus from the message: statically opaque
	b.MovI(i, 4)
	b.MovI(n, 36)
	top := b.NewLabel()
	b.Bind(top)
	b.Ld32X(v, msg, i)
	b.RemU(v, v, mod)
	b.SllI(off, v, 2)
	b.Ld32X(c, bkt, off)
	b.AddIU(c, c, 1)
	b.St32X(bkt, off, c)
	b.AddIU(i, i, 4)
	b.BltU(i, n, top)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// shardMsg is one message for shardASH: modulus 5 then eight values.
// Network byte order — vcode memory is big-endian.
func shardMsg() []byte {
	msg := make([]byte, 36)
	binary.BigEndian.PutUint32(msg, 5)
	for w := 0; w < 8; w++ {
		binary.BigEndian.PutUint32(msg[4+w*4:], uint32(w*3+1))
	}
	return msg
}

// TestReoptimizeEndToEnd closes the DCG loop through the full system:
// download with profiling, run real traffic, export the measured profile,
// hot-swap via Reoptimize, and verify the reinstalled handler is strictly
// cheaper on the same message with identical semantics.
func TestReoptimizeEndToEnd(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "buckets")

	ash := tb.sys.MustDownload(owner, shardASH(seg.Base),
		Options{OptimizeSFI: true, Profile: true})
	sb, err := tb.a2.BindVC(owner, 9, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ash.Attach(sb)

	send := func(k int) {
		for j := 0; j < k; j++ {
			tb.a1.KernelSend(tb.a2.Addr(), 9, shardMsg())
			tb.eng.Run()
		}
	}

	const warmup = 6
	send(warmup)
	if ash.InvoluntaryFault != nil {
		t.Fatal(ash.InvoluntaryFault)
	}
	pre := ash.LastInsns()

	prof := ash.ExportProfile()
	if prof == nil || prof.Invocations != warmup {
		t.Fatalf("profile = %+v, want %d invocations", prof, warmup)
	}
	var hot bool
	for pc := range prof.Counts {
		if prof.Hot(pc) {
			hot = true
		}
	}
	if !hot {
		t.Fatal("no instruction measured hot after warmup")
	}

	if h := ash.sandbox.DivChecksHoisted; h != 0 {
		t.Fatalf("static build hoisted %d divide checks without a profile", h)
	}
	if _, err := tb.sys.Reoptimize(ash); err != nil {
		t.Fatal(err)
	}
	if ash.sandbox.Policy.Profile == nil {
		t.Fatal("reoptimized build lost its profile")
	}
	if ash.sandbox.DivChecksHoisted == 0 {
		t.Fatal("measured-hot divide check was not hoisted")
	}

	send(1)
	if ash.InvoluntaryFault != nil {
		t.Fatal(ash.InvoluntaryFault)
	}
	post := ash.LastInsns()
	if post >= pre {
		t.Fatalf("reoptimized run = %d insns, static-opt run = %d", post, pre)
	}

	// Semantics preserved across the swap: every message increments the
	// five buckets by the same histogram (8 increments per message).
	var total uint32
	for k := uint32(0); k < 5; k++ {
		v, err := vcode.Load32(owner.AS, seg.Base+4*k)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if want := uint32((warmup + 1) * 8); total != want {
		t.Fatalf("bucket total = %d, want %d", total, want)
	}
}

func TestReoptimizeRefusals(t *testing.T) {
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "buckets")

	unsafe := tb.sys.MustDownload(owner, shardASH(seg.Base),
		Options{Unsafe: true, Profile: true})
	if _, err := tb.sys.Reoptimize(unsafe); err == nil {
		t.Fatal("reoptimized an unsafe handler")
	}

	unprofiled := tb.sys.MustDownload(owner, shardASH(seg.Base),
		Options{OptimizeSFI: true})
	if _, err := tb.sys.Reoptimize(unprofiled); err == nil {
		t.Fatal("reoptimized a handler downloaded without profiling")
	}
	if unprofiled.ExportProfile() != nil {
		t.Fatal("unprofiled handler exported a profile")
	}
	tb.eng.Run()
}

// chainValidateASH consumes messages whose first word matches magic and
// voluntarily aborts the rest — the head of the fused chain.
func chainValidateASH(magic uint32) *vcode.Program {
	b := vcode.NewBuilder("chain-validate")
	v, want := b.Temp(), b.Temp()
	b.Ld32(v, vcode.RArg0, 0)
	b.MovI(want, int32(magic))
	bad := b.NewLabel()
	b.Bne(v, want, bad)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	b.Bind(bad)
	b.MovI(vcode.RRet, 1)
	b.Ret()
	return b.MustAssemble()
}

func chainBumpASH(addr uint32) *vcode.Program {
	b := vcode.NewBuilder("chain-bump")
	c, v := b.Temp(), b.Temp()
	b.MovI(c, int32(addr))
	b.Ld32(v, c, 0)
	b.AddIU(v, v, 1)
	b.St32(c, 0, v)
	b.MovI(vcode.RRet, 0)
	b.Ret()
	return b.MustAssemble()
}

// TestChainDisposition: a fused chain, downloaded as one handler, keeps
// the seam semantics — a member that consumes passes control on, the first
// member that does not ends the chain with its disposition (here: to-user).
func TestChainDisposition(t *testing.T) {
	const magic = 0x41534821
	tb := newTestbed(t)
	owner := tb.k2.Spawn("app", func(p *aegis.Process) {})
	seg := owner.AS.MustAlloc(4096, "counter")

	fused, err := reopt.FuseChain("chain", chainValidateASH(magic), chainBumpASH(seg.Base))
	if err != nil {
		t.Fatal(err)
	}
	chain := tb.sys.MustDownload(owner, fused, Options{})
	sb, err := tb.a2.BindVC(owner, 7, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sb.Handler = chain

	good := binary.BigEndian.AppendUint32(nil, magic)
	good = append(good, 0, 0, 0, 9)
	tb.a1.KernelSend(tb.a2.Addr(), 7, good)
	tb.eng.Run()
	if v, _ := vcode.Load32(owner.AS, seg.Base); v != 1 {
		t.Fatalf("counter = %d after accepted message, want 1", v)
	}
	if n := sb.Ring().Len(); n != 0 {
		t.Fatalf("ring length = %d after consumed chain, want 0", n)
	}

	bad := binary.BigEndian.AppendUint32(nil, 0x0badf00d)
	bad = append(bad, 0, 0, 0, 9)
	tb.a1.KernelSend(tb.a2.Addr(), 7, bad)
	tb.eng.Run()
	if v, _ := vcode.Load32(owner.AS, seg.Base); v != 1 {
		t.Fatalf("counter = %d after rejected message, want 1 (follower must not run)", v)
	}
	if n := sb.Ring().Len(); n != 1 {
		t.Fatalf("ring length = %d after rejected message, want 1 (to user)", n)
	}

	if got := chain.Invocations; got != 2 {
		t.Fatalf("chain ran %d times, want 2", got)
	}
}
