package link

import (
	"math/rand"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

func newHostPair(t *testing.T) (*sim.Engine, *aegis.Kernel, *aegis.Kernel, *aegis.AN2If, *aegis.AN2If) {
	t.Helper()
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("h1", eng, prof)
	k2 := aegis.NewKernel("h2", eng, prof)
	return eng, k1, k2, aegis.NewAN2(k1, sw), aegis.NewAN2(k2, sw)
}

func TestCopyFromStripedFrameMatchesContiguous(t *testing.T) {
	eng, k1, _, _, _ := newHostPair(t)
	k1.Spawn("app", func(p *aegis.Process) {
		// Build a striped buffer and a contiguous frame with identical
		// payloads; copies from both must agree.
		payload := make([]byte, 1000)
		rand.New(rand.NewSource(2)).Read(payload)

		fs := stripedFrame(t, p, payload)

		contSeg := p.AS.MustAlloc(1024, "cont")
		copy(k1.Bytes(contSeg.Base, 1000), payload)
		fc := aegis.ContiguousFrame(k1.Mem, contSeg.Base, 1000)

		d1 := p.AS.MustAlloc(1024, "d1")
		d2 := p.AS.MustAlloc(1024, "d2")
		a1 := CopyFromFrame(p, fs, 16, d1.Base, 900, true)
		a2 := CopyFromFrame(p, fc, 16, d2.Base, 900, true)
		b1 := k1.Bytes(d1.Base, 900)
		b2 := k1.Bytes(d2.Base, 900)
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Errorf("striped/contiguous copy mismatch at %d", i)
				return
			}
		}
		if vcode.Fold16(a1) != vcode.Fold16(a2) {
			t.Error("striped/contiguous checksum mismatch")
		}
	})
	eng.Run()
}

// stripedFrame lays payload out in a fresh segment of p as the Ethernet's
// striping DMA does, and returns it as an Ethernet binding reads it.
func stripedFrame(t *testing.T, p *aegis.Process, payload []byte) aegis.Frame {
	t.Helper()
	k := p.K
	eth := aegis.NewEthernet(k, netdev.NewSwitch(k.Eng, k.Prof, netdev.EthernetConfig()))
	b, err := eth.BindFilter(p, dpf.NewFilter().Eq8(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	seg := p.AS.MustAlloc(2*len(payload)+32, "striped")
	aegis.Stripe(k.Bytes(seg.Base, 2*len(payload)+32), payload)
	return b.Frame(aegis.RingEntry{Addr: seg.Base, Len: len(payload)})
}

func TestFrameFieldAccessors(t *testing.T) {
	eng, k1, _, _, _ := newHostPair(t)
	k1.Spawn("app", func(p *aegis.Process) {
		seg := p.AS.MustAlloc(64, "buf")
		b := k1.Bytes(seg.Base, 64)
		for i := range b {
			b[i] = byte(i)
		}
		f := aegis.ContiguousFrame(k1.Mem, seg.Base, 64)
		if f.Byte(5) != 5 {
			t.Errorf("Byte(5) = %d", f.Byte(5))
		}
		if f.U16(2) != 0x0203 {
			t.Errorf("U16(2) = %#x", f.U16(2))
		}
		if f.U32(4) != 0x04050607 {
			t.Errorf("U32(4) = %#x", f.U32(4))
		}
		out := make([]byte, 8)
		f.Bytes(out, 10, 8)
		if out[0] != 10 || out[7] != 17 {
			t.Errorf("Bytes = %v", out)
		}
	})
	eng.Run()
}

func TestEndpointSendRecvAN2(t *testing.T) {
	eng, k1, k2, a1, a2 := newHostPair(t)
	var got []byte
	k2.Spawn("rx", func(p *aegis.Process) {
		ep, err := BindAN2(a2, p, 4, 8, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		f := ep.Recv(true)
		got = make([]byte, f.Len())
		f.Bytes(got, 0, f.Len())
		ep.Release(f)
	})
	k1.Spawn("tx", func(p *aegis.Process) {
		ep, err := BindAN2(a1, p, 4, 8, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		ep.Send(Addr{Port: a2.Addr(), VC: 4}, []byte("hello an2"))
	})
	eng.Run()
	if string(got) != "hello an2" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvUntilTimesOut(t *testing.T) {
	eng, k1, _, a1, _ := newHostPair(t)
	var timedOut bool
	var at sim.Time
	k1.Spawn("rx", func(p *aegis.Process) {
		ep, err := BindAN2(a1, p, 4, 8, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		_, ok := ep.RecvUntil(false, 50000)
		timedOut = !ok
		at = p.K.Now()
	})
	eng.Run()
	if !timedOut {
		t.Fatal("RecvUntil did not time out")
	}
	if at < 50000 || at > 52000 {
		t.Fatalf("timed out at %d, want ~50000", at)
	}
}

func TestRecvUntilPollingTimesOut(t *testing.T) {
	eng, k1, _, a1, _ := newHostPair(t)
	var timedOut bool
	k1.Spawn("rx", func(p *aegis.Process) {
		ep, err := BindAN2(a1, p, 4, 8, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		_, ok := ep.RecvUntil(true, 50000)
		timedOut = !ok
	})
	eng.Run()
	if !timedOut {
		t.Fatal("polling RecvUntil did not time out")
	}
}

// passCostPerWord is the per-word charging loop passCost replaced: one
// Cache.Load (and Store) call per 32-bit word, the source address of a
// striped frame computed a word at a time.
func passCostPerWord(k *aegis.Kernel, base uint32, off int, striped bool, dst uint32, n int, store bool, opCycles int) sim.Time {
	var cycles sim.Time
	for o := 0; o < n; o += 4 {
		at := off + o
		if striped {
			at = 2*(at/16)*16 + at%16 // data line at/16 follows as many data and pad lines
		}
		cycles += k.Cache.Load(base + uint32(at))
		if store {
			cycles += k.Cache.Store(dst + uint32(o))
		}
		cycles += sim.Time(k.Prof.LoopOverhead + opCycles)
	}
	return cycles
}

// TestPassCostMatchesPerWordLoop pins the run-at-a-time passCost to the
// per-word loop: contiguous and striped sources, every start offset within
// two stripe lines, every short length, with and without the store stream,
// on a cold cache and again on what the first pass left — cycles and cache
// statistics both.
func TestPassCostMatchesPerWordLoop(t *testing.T) {
	prof := mach.DS5000_240()
	newKernel := func() *aegis.Kernel {
		return aegis.NewKernel("h", sim.NewEngine(), prof)
	}
	got, want := newKernel(), newKernel()
	const base, dst = 0x40000, 0x52008
	for _, striped := range []bool{false, true} {
		for _, store := range []bool{false, true} {
			for off := 0; off < 32; off++ {
				for n := 1; n <= 96; n++ {
					got.Cache.Flush()
					want.Cache.Flush()
					for pass := 0; pass < 2; pass++ {
						f := aegis.Frame{Entry: aegis.RingEntry{Addr: base, Len: off + n}, Striped: striped}
						g := passCost(got, &f, off, dst, n, store, prof.CksumOp)
						w := passCostPerWord(want, base, off, striped, dst, n, store, prof.CksumOp)
						if g != w || got.Cache.Hits != want.Cache.Hits || got.Cache.Misses != want.Cache.Misses || got.Cache.Stores != want.Cache.Stores {
							t.Fatalf("striped %v store %v off %d n %d pass %d: %d cycles (hits %d misses %d stores %d), per-word loop %d (%d/%d/%d)",
								striped, store, off, n, pass, g, got.Cache.Hits, got.Cache.Misses, got.Cache.Stores,
								w, want.Cache.Hits, want.Cache.Misses, want.Cache.Stores)
						}
					}
				}
			}
		}
	}
	if f := (aegis.Frame{Entry: aegis.RingEntry{Addr: base}, Striped: true}); passCost(got, &f, 0, dst, 0, true, 1) != 0 {
		t.Error("an empty pass is not free")
	}
}

// TestFrameReadsInPlace checks the costed passes over a striped frame
// against its payload: the bytes copied and the checksum are those of the
// payload — at every offset parity and length, including ranges that open
// and close mid-line.
func TestFrameReadsInPlace(t *testing.T) {
	eng, k1, _, _, _ := newHostPair(t)
	k1.Spawn("app", func(p *aegis.Process) {
		payload := make([]byte, 200)
		rand.New(rand.NewSource(4)).Read(payload)
		fs := stripedFrame(t, p, payload)
		dst := p.AS.MustAlloc(256, "dst")

		for off := 0; off < 40; off++ {
			for n := 0; off+n <= len(payload); n += 1 + n/17 {
				want := payload[off : off+n]
				out := make([]byte, n)
				fs.Bytes(out, off, n)
				if string(out) != string(want) {
					t.Fatalf("Bytes(off %d, n %d) differs from the payload", off, n)
				}
				if got := CksumFromFrame(p, fs, off, n); got != vcode.CksumData(0, want) {
					t.Fatalf("CksumFromFrame(off %d, n %d) = %#x, want %#x", off, n, got, vcode.CksumData(0, want))
				}
				if got := CopyFromFrame(p, fs, off, dst.Base, n, true); got != vcode.CksumData(0, want) {
					t.Fatalf("CopyFromFrame(off %d, n %d) checksum = %#x, want %#x", off, n, got, vcode.CksumData(0, want))
				}
				if string(k1.Bytes(dst.Base, n)) != string(want) {
					t.Fatalf("CopyFromFrame(off %d, n %d) copied the wrong bytes", off, n)
				}
			}
		}

		// A contiguous frame copied onto itself a few bytes up: the result
		// is the copy through a temporary, and so is its checksum.
		cont := p.AS.MustAlloc(256, "cont")
		copy(k1.Bytes(cont.Base, 200), payload)
		fc := aegis.ContiguousFrame(k1.Mem, cont.Base, 200)
		got := CopyFromFrame(p, fc, 0, cont.Base+6, 150, true)
		if string(k1.Bytes(cont.Base+6, 150)) != string(payload[:150]) {
			t.Error("overlapping CopyFromFrame did not copy through a temporary")
		}
		if got != vcode.CksumData(0, payload[:150]) {
			t.Error("overlapping CopyFromFrame checksummed something other than what it copied")
		}
	})
	eng.Run()
}
