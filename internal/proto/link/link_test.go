package link

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
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

func TestCksumDataMatchesReference(t *testing.T) {
	err := quick.Check(func(data []byte) bool {
		got := FoldCksum(CksumData(0, data))
		// Reference: textbook 16-bit accumulation.
		var sum uint32
		for i := 0; i < len(data); i += 2 {
			w := uint32(data[i]) << 8
			if i+1 < len(data) {
				w |= uint32(data[i+1])
			}
			sum += w
			if sum > 0xffff {
				sum = sum&0xffff + sum>>16
			}
		}
		return got == uint16(sum)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCksumIncremental(t *testing.T) {
	// Property: checksumming in chunks at even boundaries equals one pass.
	err := quick.Check(func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = a[:len(a)-1]
		}
		whole := CksumData(0, append(append([]byte(nil), a...), b...))
		split := CksumData(CksumData(0, a), b)
		return FoldCksum(whole) == FoldCksum(split)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCopyRangeMovesBytesAndCharges(t *testing.T) {
	eng, k1, _, _, _ := newHostPair(t)
	var cost sim.Time
	k1.Spawn("app", func(p *aegis.Process) {
		src := p.AS.MustAlloc(4096, "src")
		dst := p.AS.MustAlloc(4096, "dst")
		rng := rand.New(rand.NewSource(1))
		s := k1.Bytes(src.Base, 4096)
		rng.Read(s)
		start := p.K.Now()
		acc := CopyRange(p, k1, src.Base, dst.Base, 4096, true)
		cost = p.K.Now() - start
		d := k1.Bytes(dst.Base, 4096)
		for i := range s {
			if s[i] != d[i] {
				t.Errorf("copy mismatch at %d", i)
				return
			}
		}
		if FoldCksum(acc) != FoldCksum(CksumData(0, s)) {
			t.Error("integrated checksum wrong")
		}
	})
	eng.Run()
	// Uncached integrated copy+cksum: ~11 cycles/word = ~2.75 us/words...
	us := k1.Prof.Us(cost)
	if us < 200 || us > 350 {
		t.Fatalf("integrated copy+cksum of 4096B cost %.1f us, want ~280", us)
	}
}

func TestCopyFromStripedFrameMatchesContiguous(t *testing.T) {
	eng, k1, _, _, _ := newHostPair(t)
	k1.Spawn("app", func(p *aegis.Process) {
		// Build a striped buffer and a contiguous frame with identical
		// payloads; copies from both must agree.
		payload := make([]byte, 1000)
		rand.New(rand.NewSource(2)).Read(payload)

		stripedSeg := p.AS.MustAlloc(2048+32, "striped")
		aegis.Stripe(k1.Bytes(stripedSeg.Base, 2048+32), payload)
		fs := Frame{Entry: aegis.RingEntry{Addr: stripedSeg.Base, Len: len(payload)}, Striped: true}
		setFrameKernel(&fs, k1)

		contSeg := p.AS.MustAlloc(1024, "cont")
		copy(k1.Bytes(contSeg.Base, 1000), payload)
		fc := FabricateFrame(k1, contSeg.Base, 1000)

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
		if FoldCksum(a1) != FoldCksum(a2) {
			t.Error("striped/contiguous checksum mismatch")
		}
	})
	eng.Run()
}

// setFrameKernel lets tests fabricate striped frames.
func setFrameKernel(f *Frame, k *aegis.Kernel) { f.k = k }

func TestFrameFieldAccessors(t *testing.T) {
	eng, k1, _, _, _ := newHostPair(t)
	k1.Spawn("app", func(p *aegis.Process) {
		seg := p.AS.MustAlloc(64, "buf")
		b := k1.Bytes(seg.Base, 64)
		for i := range b {
			b[i] = byte(i)
		}
		f := FabricateFrame(k1, seg.Base, 64)
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

// cksumHalfwords is the halfword-at-a-time loop CksumData replaced: one
// end-around-carry add per big-endian 16-bit word. It defines the
// accumulator CksumData must return, bit for bit.
func cksumHalfwords(acc uint32, data []byte) uint32 {
	step := func(acc, v uint32) uint32 {
		s := uint64(acc) + uint64(v)
		return uint32(s) + uint32(s>>32)
	}
	i := 0
	for ; i+1 < len(data); i += 2 {
		acc = step(acc, uint32(data[i])<<8|uint32(data[i+1]))
	}
	if i < len(data) {
		acc = step(acc, uint32(data[i])<<8)
	}
	return acc
}

func TestCksumDataMatchesHalfwordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 4099)
	rng.Read(random)
	ones := make([]byte, 70000) // 0xffff halfwords: the sum carries out of 32 bits
	for i := range ones {
		ones[i] = 0xff
	}
	zeros := make([]byte, 64)
	seeds := []uint32{0, 1, 0xffff, 0xfffffffe, 0xffffffff, 0x80000000, rng.Uint32()}
	for _, data := range [][]byte{random, ones, zeros} {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1459, 1460, len(data) - 1, len(data)} {
			for _, seed := range seeds {
				for start := 0; start < 3 && start+n <= len(data); start++ {
					d := data[start : start+n]
					if got, want := CksumData(seed, d), cksumHalfwords(seed, d); got != want {
						t.Fatalf("CksumData(%#x, %d bytes of %#x...) = %#x, halfword loop %#x", seed, n, data[0], got, want)
					}
				}
			}
		}
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
			at = aegis.StripedIndex(at)
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
						g := passCost(got, base, off, striped, dst, n, store, prof.CksumOp)
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
	if passCost(got, base, 0, true, dst, 0, true, 1) != 0 {
		t.Error("an empty pass is not free")
	}
}

// TestFrameReadsInPlace checks the temporary-free frame readers against
// the byte-at-a-time definition: payload byte i of a striped frame lives at
// StripedIndex(i), and the checksum is CksumData over those bytes — at
// every offset parity and length, including ranges that open and close
// mid-line.
func TestFrameReadsInPlace(t *testing.T) {
	eng, k1, _, _, _ := newHostPair(t)
	k1.Spawn("app", func(p *aegis.Process) {
		payload := make([]byte, 200)
		rand.New(rand.NewSource(4)).Read(payload)
		seg := p.AS.MustAlloc(2*len(payload)+32, "striped")
		aegis.Stripe(k1.Bytes(seg.Base, 2*len(payload)+32), payload)
		fs := Frame{Entry: aegis.RingEntry{Addr: seg.Base, Len: len(payload)}, Striped: true}
		setFrameKernel(&fs, k1)
		dst := p.AS.MustAlloc(256, "dst")

		for off := 0; off < 40; off++ {
			for n := 0; off+n <= len(payload); n += 1 + n/17 {
				want := payload[off : off+n]
				out := make([]byte, n)
				fs.Bytes(out, off, n)
				if string(out) != string(want) {
					t.Fatalf("Bytes(off %d, n %d) differs from the payload", off, n)
				}
				if got := CksumFromFrame(p, fs, off, n); got != cksumHalfwords(0, want) {
					t.Fatalf("CksumFromFrame(off %d, n %d) = %#x, want %#x", off, n, got, cksumHalfwords(0, want))
				}
				if got := CopyFromFrame(p, fs, off, dst.Base, n, true); got != cksumHalfwords(0, want) {
					t.Fatalf("CopyFromFrame(off %d, n %d) checksum = %#x, want %#x", off, n, got, cksumHalfwords(0, want))
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
		fc := FabricateFrame(k1, cont.Base, 200)
		got := CopyFromFrame(p, fc, 0, cont.Base+6, 150, true)
		if string(k1.Bytes(cont.Base+6, 150)) != string(payload[:150]) {
			t.Error("overlapping CopyFromFrame did not copy through a temporary")
		}
		if got != cksumHalfwords(0, payload[:150]) {
			t.Error("overlapping CopyFromFrame checksummed something other than what it copied")
		}
	})
	eng.Run()
}
