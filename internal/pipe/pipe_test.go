package pipe

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// Conflict-free placement on the direct-mapped 64-KB cache (distinct
// modulo 0x10000), mirroring the paper's best-case link-order methodology.
const (
	srcAddr = uint32(0x10000)
	dstAddr = uint32(0x24000)
)

func newEnv(t *testing.T, n int) (*vcode.Machine, *vcode.FlatMem) {
	t.Helper()
	mem := vcode.NewFlatMem(0, 0x80000)
	p := mach.DS5000_240()
	m := vcode.NewMachine(p, mem)
	m.Cache = mach.NewCache(p)
	return m, mem
}

func fillRandom(mem *vcode.FlatMem, addr uint32, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		mem.Data[addr-mem.Base+uint32(i)] = byte(rng.Intn(256))
	}
}

func bytesAt(mem *vcode.FlatMem, addr uint32, n int) []byte {
	return mem.Data[addr-mem.Base : addr-mem.Base+uint32(n)]
}

// refCksum32 is an independent RFC 1071 accumulator over big-endian words.
func refCksum32(data []byte) uint32 {
	var acc uint32
	for i := 0; i+3 < len(data); i += 4 {
		w := uint32(data[i])<<24 | uint32(data[i+1])<<16 | uint32(data[i+2])<<8 | uint32(data[i+3])
		acc = cksumStep(acc, w)
	}
	return acc
}

func TestCopyEngineCopies(t *testing.T) {
	m, mem := newEnv(t, 4096)
	fillRandom(mem, srcAddr, 4096, 1)
	e := CompileCopy()
	if _, f := e.Run(m, srcAddr, dstAddr, 4096); f != nil {
		t.Fatal(f)
	}
	src := bytesAt(mem, srcAddr, 4096)
	dst := bytesAt(mem, dstAddr, 4096)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("copy mismatch at %d: %#x vs %#x", i, src[i], dst[i])
		}
	}
}

func TestCopyEngineCalibration(t *testing.T) {
	// The uncached single copy anchors Table III: ~8 cycles/word = 20 MB/s.
	m, _ := newEnv(t, 4096)
	e := CompileCopy()
	m.Cache.Flush()
	cycles, f := e.Run(m, srcAddr, dstAddr, 4096)
	if f != nil {
		t.Fatal(f)
	}
	mbps := m.Prof.MBps(4096, cycles)
	if mbps < 19 || mbps > 21 {
		t.Fatalf("single copy = %.2f MB/s, want ~20 (Table III)", mbps)
	}
}

func TestCksumPipeMatchesReference(t *testing.T) {
	m, mem := newEnv(t, 4096)
	fillRandom(mem, srcAddr, 4096, 2)
	l := NewList(1)
	ck, acc, err := Cksum(l)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(l, Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Export(m, ck, acc, 0)
	if _, f := e.Run(m, srcAddr, dstAddr, 4096); f != nil {
		t.Fatal(f)
	}
	got := e.Import(m, ck, acc)
	want := refCksum32(bytesAt(mem, srcAddr, 4096))
	if got != want {
		t.Fatalf("cksum = %#x, want %#x", got, want)
	}
	// And the copy side must still be intact.
	src, dst := bytesAt(mem, srcAddr, 4096), bytesAt(mem, dstAddr, 4096)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("copy mismatch at %d", i)
		}
	}
}

func TestByteswapPipeSwaps(t *testing.T) {
	m, mem := newEnv(t, 16)
	copy(bytesAt(mem, srcAddr, 8), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	l := NewList(1)
	if _, err := Byteswap(l); err != nil {
		t.Fatal(err)
	}
	e, err := Compile(l, Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, f := e.Run(m, srcAddr, dstAddr, 8); f != nil {
		t.Fatal(f)
	}
	want := []byte{4, 3, 2, 1, 8, 7, 6, 5}
	got := bytesAt(mem, dstAddr, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byteswap output = %v, want %v", got, want)
		}
	}
}

func TestFig1CksumPlusByteswapComposition(t *testing.T) {
	// The paper's Fig. 1: compose checksum and byteswap pipes, compile,
	// run. The checksum must be over the *unswapped* input (cksum is NoMod
	// and first in the list) and the output must be swapped.
	m, mem := newEnv(t, 4096)
	fillRandom(mem, srcAddr, 4096, 3)

	pl := NewList(2)
	ck, ckReg, err := Cksum(pl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Byteswap(pl); err != nil {
		t.Fatal(err)
	}
	ilp, err := Compile(pl, Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}

	ilp.Export(m, ck, ckReg, 0)
	if _, f := ilp.Run(m, srcAddr, dstAddr, 4096); f != nil {
		t.Fatal(f)
	}
	if got, want := ilp.Import(m, ck, ckReg), refCksum32(bytesAt(mem, srcAddr, 4096)); got != want {
		t.Fatalf("cksum = %#x, want %#x", got, want)
	}
	src, dst := bytesAt(mem, srcAddr, 4096), bytesAt(mem, dstAddr, 4096)
	for i := 0; i < 4096; i += 4 {
		for k := 0; k < 4; k++ {
			if dst[i+k] != src[i+3-k] {
				t.Fatalf("word at %d not byteswapped", i)
			}
		}
	}
}

func TestXorPipeRoundTrips(t *testing.T) {
	m, mem := newEnv(t, 64)
	fillRandom(mem, srcAddr, 64, 4)
	orig := append([]byte(nil), bytesAt(mem, srcAddr, 64)...)

	l := NewList(1)
	if _, err := Xor(l, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	e, err := Compile(l, Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, f := e.Run(m, srcAddr, dstAddr, 64); f != nil {
		t.Fatal(f)
	}
	// Encrypting twice restores the original.
	if _, f := e.Run(m, dstAddr, dstAddr, 64); f != nil {
		t.Fatal(f)
	}
	got := bytesAt(mem, dstAddr, 64)
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatalf("xor round trip mismatch at %d", i)
		}
	}
}

func TestGaugeConversion16(t *testing.T) {
	// A 16-bit checksum pipe applied through the 32-bit stream must equal
	// summing the 16-bit big-endian halves.
	m, mem := newEnv(t, 256)
	fillRandom(mem, srcAddr, 256, 5)
	l := NewList(1)
	ck, acc, err := Cksum16(l)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(l, Options{Output: false})
	if err != nil {
		t.Fatal(err)
	}
	e.Export(m, ck, acc, 0)
	if _, f := e.Run(m, srcAddr, 0, 256); f != nil {
		t.Fatal(f)
	}
	got := Fold16(e.Import(m, ck, acc))

	data := bytesAt(mem, srcAddr, 256)
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum = cksumStep(sum, uint32(data[i])<<8|uint32(data[i+1]))
	}
	want := Fold16(sum)
	if got != want {
		t.Fatalf("gauge-16 cksum = %#x, want %#x", got, want)
	}
}

func TestCompositionEqualsFunctionComposition(t *testing.T) {
	// Property: running the fused engine equals applying each pipe's
	// mathematical function word-by-word in order.
	err := quick.Check(func(words []uint32, key uint32) bool {
		if len(words) == 0 {
			words = []uint32{0}
		}
		if len(words) > 256 {
			words = words[:256]
		}
		n := len(words) * 4
		m, mem := newEnvQ()
		for i, w := range words {
			_ = vcode.Store32(mem, srcAddr+uint32(i*4), w)
		}
		l := NewList(3)
		ck, acc, err := Cksum(l)
		if err != nil {
			return false
		}
		if _, err := Xor(l, key); err != nil {
			return false
		}
		if _, err := Byteswap(l); err != nil {
			return false
		}
		e, err := Compile(l, Options{Output: true})
		if err != nil {
			return false
		}
		e.Export(m, ck, acc, 0)
		if _, f := e.Run(m, srcAddr, dstAddr, n); f != nil {
			return false
		}
		var wantAcc uint32
		for i, w := range words {
			wantAcc = cksumStep(wantAcc, w)
			x := w ^ key
			s := x<<24 | (x&0xff00)<<8 | (x>>8)&0xff00 | x>>24
			got, err := vcode.Load32(mem, dstAddr+uint32(i*4))
			if err != nil || got != s {
				return false
			}
		}
		return e.Import(m, ck, acc) == wantAcc
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func newEnvQ() (*vcode.Machine, *vcode.FlatMem) {
	mem := vcode.NewFlatMem(0, 0x80000)
	p := mach.DS5000_240()
	m := vcode.NewMachine(p, mem)
	m.Cache = mach.NewCache(p)
	return m, mem
}

func TestSeparateVsIntegratedThroughput(t *testing.T) {
	// Table IV shape: integrated processing beats separate passes by
	// ~1.4-1.6x for copy+cksum(+byteswap) on uncached 4096-byte buffers.
	const n = 4096
	runDILP := func(withBswap bool) float64 {
		m, mem := newEnv(t, n)
		fillRandom(mem, srcAddr, n, 7)
		l := NewList(2)
		ck, acc, _ := Cksum(l)
		if withBswap {
			if _, err := Byteswap(l); err != nil {
				t.Fatal(err)
			}
		}
		e, err := Compile(l, Options{Output: true})
		if err != nil {
			t.Fatal(err)
		}
		m.Cache.Flush()
		e.Export(m, ck, acc, 0)
		cycles, f := e.Run(m, srcAddr, dstAddr, n)
		if f != nil {
			t.Fatal(f)
		}
		return m.Prof.MBps(n, cycles)
	}
	runSeparate := func(withBswap bool) float64 {
		m, mem := newEnv(t, n)
		fillRandom(mem, srcAddr, n, 7)
		l := NewList(2)
		ck, acc, _ := Cksum(l)
		if withBswap {
			if _, err := Byteswap(l); err != nil {
				t.Fatal(err)
			}
		}
		copyEng := CompileCopy()
		passes, err := CompileSeparate(l)
		if err != nil {
			t.Fatal(err)
		}
		m.Cache.Flush()
		var total int64
		cycles, f := copyEng.Run(m, srcAddr, dstAddr, n)
		if f != nil {
			t.Fatal(f)
		}
		total += int64(cycles)
		for i, pe := range passes {
			if i == 0 {
				pe.Export(m, ck, acc, 0)
			}
			cycles, f := pe.Run(m, dstAddr, dstAddr, n)
			if f != nil {
				t.Fatal(f)
			}
			total += int64(cycles)
		}
		return m.Prof.MBps(n, sim.Time(total))
	}

	dilp := runDILP(false)
	sep := runSeparate(false)
	if dilp <= sep {
		t.Fatalf("copy+cksum: DILP %.1f MB/s not faster than separate %.1f MB/s", dilp, sep)
	}
	ratio := dilp / sep
	if ratio < 1.2 || ratio > 1.9 {
		t.Fatalf("copy+cksum integration benefit = %.2fx, want ~1.4x (Table IV)", ratio)
	}

	dilp2 := runDILP(true)
	sep2 := runSeparate(true)
	if dilp2 <= sep2 {
		t.Fatalf("copy+cksum+bswap: DILP %.1f not faster than separate %.1f", dilp2, sep2)
	}
}

func TestHandIntegratedMatchesDILP(t *testing.T) {
	// Table IV shape: "our emitted copying routines are very close in
	// efficiency to carefully hand-optimized integrated loops."
	const n = 4096
	m1, mem1 := newEnv(t, n)
	fillRandom(mem1, srcAddr, n, 9)
	m1.Cache.Flush()
	accHand, handCycles, err := HandIntegrated(m1, srcAddr, dstAddr, n, false)
	if err != nil {
		t.Fatal(err)
	}

	m2, mem2 := newEnv(t, n)
	fillRandom(mem2, srcAddr, n, 9)
	l := NewList(1)
	ck, acc, _ := Cksum(l)
	e, err := Compile(l, Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	m2.Cache.Flush()
	e.Export(m2, ck, acc, 0)
	dilpCycles, f := e.Run(m2, srcAddr, dstAddr, n)
	if f != nil {
		t.Fatal(f)
	}
	if got := e.Import(m2, ck, acc); got != accHand {
		t.Fatalf("hand and DILP checksums differ: %#x vs %#x", accHand, got)
	}
	r := float64(dilpCycles) / float64(handCycles)
	if r < 0.9 || r > 1.15 {
		t.Fatalf("DILP/hand cycle ratio = %.3f, want ~1.0 (Table IV)", r)
	}
}

func TestEngineRejectsOddLength(t *testing.T) {
	m, _ := newEnv(t, 16)
	e := CompileCopy()
	if _, f := e.Run(m, srcAddr, dstAddr, 6); f == nil {
		t.Fatal("engine accepted non-word-multiple length")
	}
}

func TestEngineZeroLength(t *testing.T) {
	m, _ := newEnv(t, 16)
	e := CompileCopy()
	cycles, f := e.Run(m, srcAddr, dstAddr, 0)
	if f != nil {
		t.Fatal(f)
	}
	if cycles > 10 {
		t.Fatalf("zero-length run cost %d cycles", cycles)
	}
}

func TestEngineFaultsOutsideMemory(t *testing.T) {
	m, _ := newEnv(t, 16)
	e := CompileCopy()
	if _, f := e.Run(m, 0xf0000000, dstAddr, 16); f == nil {
		t.Fatal("engine ran over unmapped source")
	}
}

func TestPipeValidationRejectsBadShapes(t *testing.T) {
	l := NewList(4)
	if _, err := l.Lambda("no-input", Gauge32, 0, func(b *vcode.Builder) {
		r := b.Temp()
		b.MovI(r, 1)
		b.Output32(r)
	}); err == nil {
		t.Fatal("pipe without leading input32 accepted")
	}
	if _, err := l.Lambda("no-output", Gauge32, 0, func(b *vcode.Builder) {
		b.Input32(vcode.RInput)
		b.Nop()
	}); err == nil {
		t.Fatal("pipe without trailing output32 accepted")
	}
	if _, err := l.Lambda("memory", Gauge32, 0, func(b *vcode.Builder) {
		r := b.Temp()
		b.Input32(vcode.RInput)
		b.Ld32(r, vcode.RInput, 0)
		b.Output32(r)
	}); err == nil {
		t.Fatal("pipe with direct memory access accepted")
	}
	if _, err := l.Lambda("badgauge", Gauge(12), 0, func(b *vcode.Builder) {
		b.Input32(vcode.RInput)
		b.Output32(vcode.RInput)
	}); err == nil {
		t.Fatal("unsupported gauge accepted")
	}
	if _, err := l.Lambda("nomod-lie", Gauge32, NoMod, func(b *vcode.Builder) {
		r := b.Temp()
		b.Input32(vcode.RInput)
		b.Bswap(r, vcode.RInput)
		b.Output32(r)
	}); err == nil {
		t.Fatal("NoMod pipe that outputs a different register accepted")
	}
}

func TestPipeWithInternalBranch(t *testing.T) {
	// A pipe that clamps each word to 0xff via a branch, to exercise
	// branch retargeting during inlining.
	l := NewList(1)
	p, err := l.Lambda("clamp", Gauge32, 0, func(b *vcode.Builder) {
		lim, out := b.Temp(), b.Temp()
		b.Input32(vcode.RInput)
		b.MovI(lim, 0x100)
		b.Mov(out, vcode.RInput)
		skip := b.NewLabel()
		b.BltU(vcode.RInput, lim, skip)
		b.MovI(out, 0xff)
		b.Bind(skip)
		b.Output32(out)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	e, err := Compile(l, Options{Output: true})
	if err != nil {
		t.Fatal(err)
	}
	m, mem := newEnv(t, 32)
	_ = vcode.Store32(mem, srcAddr, 0x42)
	_ = vcode.Store32(mem, srcAddr+4, 0x12345)
	if _, f := e.Run(m, srcAddr, dstAddr, 8); f != nil {
		t.Fatal(f)
	}
	v0, _ := vcode.Load32(mem, dstAddr)
	v1, _ := vcode.Load32(mem, dstAddr+4)
	if v0 != 0x42 || v1 != 0xff {
		t.Fatalf("clamp pipe produced %#x, %#x; want 0x42, 0xff", v0, v1)
	}
}

func TestFold16(t *testing.T) {
	cases := []struct {
		in   uint32
		want uint16
	}{
		{0, 0}, {0xffff, 0xffff}, {0x10000, 1}, {0x1fffe, 0xffff}, {0xffffffff, 0xffff},
	}
	for _, tc := range cases {
		if got := Fold16(tc.in); got != tc.want {
			t.Errorf("Fold16(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

func TestCommutativeAttrRecorded(t *testing.T) {
	l := NewList(1)
	ck, _, err := Cksum(l)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Attrs&Commutative == 0 || ck.Attrs&NoMod == 0 {
		t.Fatal("cksum pipe missing Commutative|NoMod attributes")
	}
}

func TestStripedEngineMatchesContiguous(t *testing.T) {
	// The Ethernet back end: the same pipes compiled against the striped
	// DMA layout must produce identical bytes and checksums, at slightly
	// higher cost (the line-skip index update).
	const n = 1024
	m, mem := newEnv(t, 4*n)
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	// Contiguous copy at srcAddr; striped layout at srcAddr+0x8000.
	copy(bytesAt(mem, srcAddr, n), payload)
	stripedAddr := srcAddr + 0x8000
	stripeBuf := bytesAt(mem, stripedAddr, 2*n)
	aegis.Stripe(stripeBuf, payload)

	mk := func(striped bool) (*Engine, *Pipe, vcode.Reg) {
		l := NewList(1)
		ck, acc, err := Cksum(l)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Compile(l, Options{Output: true, StripedSrc: striped})
		if err != nil {
			t.Fatal(err)
		}
		return e, ck, acc
	}
	contEng, ck1, acc1 := mk(false)
	strEng, ck2, acc2 := mk(true)

	m.Cache.Flush()
	contEng.Export(m, ck1, acc1, 0)
	cCycles, f := contEng.Run(m, srcAddr, dstAddr, n)
	if f != nil {
		t.Fatal(f)
	}
	contSum := contEng.Import(m, ck1, acc1)

	m.Cache.Flush()
	strEng.Export(m, ck2, acc2, 0)
	sCycles, f := strEng.Run(m, stripedAddr, dstAddr+0x4000, n)
	if f != nil {
		t.Fatal(f)
	}
	strSum := strEng.Import(m, ck2, acc2)

	if Fold16(contSum) != Fold16(strSum) {
		t.Fatalf("checksums differ: %#x vs %#x", contSum, strSum)
	}
	a := bytesAt(mem, dstAddr, n)
	b := bytesAt(mem, dstAddr+0x4000, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output differs at %d", i)
		}
	}
	// Striped costs a little more, but within ~15%.
	r := float64(sCycles) / float64(cCycles)
	if r < 1.0 || r > 1.15 {
		t.Fatalf("striped/contiguous cycle ratio = %.3f, want (1.0, 1.15]", r)
	}
}

func TestStripedEngineRejectsNon16Multiple(t *testing.T) {
	l := NewList(0)
	e, err := Compile(l, Options{Output: true, StripedSrc: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := newEnv(t, 64)
	if _, f := e.Run(m, srcAddr, dstAddr, 24); f == nil {
		t.Fatal("striped engine accepted a non-16-multiple length")
	}
}

// TestCompiledEnginesStream is the contract between what Compile emits and
// what vcode's streaming-loop executor matches (vcode/stream.go): of every
// non-striped engine — each composition of the built-in pipes, copying or
// not — the interpreter loop runs the prologue, the first iteration and
// the ret, and the executor everything else. Reorder two instructions of
// the emitted loop and this test, not a profile, says the fast path is
// gone. The striped engine is unrolled by four and is the documented miss.
//
// The executor asks the machine's Memory for both streams whole, so the
// share is the same over what a downloaded handler runs on — a Journal on
// an address space — and a stream that crosses the end of its segment is
// not lent: nothing is streamed, the interpreter faults on the loop's load
// at the first address outside, and Undo takes back what had been copied.
func TestCompiledEnginesStream(t *testing.T) {
	builtins := []struct {
		name string
		add  func(*List) error
	}{
		{"cksum", func(l *List) error { _, _, err := Cksum(l); return err }},
		{"byteswap", func(l *List) error { _, err := Byteswap(l); return err }},
		{"xor", func(l *List) error { _, err := Xor(l, 0xdeadbeef); return err }},
		{"cksum16", func(l *List) error { _, _, err := Cksum16(l); return err }},
	}
	const n = 256
	m, mem := newEnv(t, n)
	fillRandom(mem, srcAddr, 2*n, 1)
	k := aegis.NewKernelMem("pipe", sim.NewEngine(), m.Prof, 4*n)
	defer k.Close()
	as := k.NewAddrSpace("pipe")
	dst, src := as.MustAlloc(n, "dst"), as.MustAlloc(n, "src") // src last: nothing is mapped past its end
	copy(k.Bytes(src.Base, n), mem.Data[srcAddr:][:n])
	journal := vcode.NewJournal(as)
	jm := vcode.NewMachine(m.Prof, journal)
	jm.Cache = mach.NewCache(m.Prof)
	for subset := 0; subset < 1<<len(builtins); subset++ {
		l := NewList(len(builtins))
		for i, p := range builtins {
			if subset&(1<<i) != 0 {
				if err := p.add(l); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, opts := range []Options{{}, {Output: true}, {StripedSrc: true}, {Output: true, StripedSrc: true}} {
			e, err := Compile(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, f := e.Run(m, srcAddr, dstAddr, n); f != nil {
				t.Fatalf("%s: %v", e.Prog.Name, f)
			}
			// Guard and index set-up, one trip round the loop, ret: the
			// non-striped program once through.
			want := m.Insns - int64(len(e.Prog.Insns))
			if opts.StripedSrc {
				want = 0
			}
			if m.Streamed != want {
				t.Errorf("%s (Output %v): Streamed = %d of %d instructions, want %d\n%s",
					e.Prog.Name, opts.Output, m.Streamed, m.Insns, want, e.Prog)
			}
			if opts.StripedSrc {
				continue
			}
			journal.Reset()
			if _, f := e.Run(jm, src.Base, dst.Base, n); f != nil {
				t.Fatalf("%s over a Journal on an AddrSpace: %v", e.Prog.Name, f)
			}
			if jm.Streamed != want || jm.Insns != m.Insns {
				t.Errorf("%s (Output %v) over a Journal on an AddrSpace: Streamed = %d of %d instructions, want %d of %d",
					e.Prog.Name, opts.Output, jm.Streamed, jm.Insns, want, m.Insns)
			}
			if opts.Output && !bytes.Equal(k.Bytes(dst.Base, n), mem.Data[dstAddr:][:n]) {
				t.Errorf("%s over a Journal on an AddrSpace wrote other bytes than over a FlatMem", e.Prog.Name)
			}

			before := bytes.Clone(k.Bytes(dst.Base, n))
			journal.Reset()
			_, f := e.Run(jm, src.Base+n/2, dst.Base, n)
			load := slices.IndexFunc(e.Prog.Insns, func(in vcode.Insn) bool { return in.Op == vcode.OpLd32X })
			if f == nil || f.Kind != vcode.FaultBadAddr || f.Addr != src.Base+n || f.PC != load || jm.Streamed != 0 {
				t.Errorf("%s, src crossing the end of its segment: fault %v, Streamed %d; want a bad address %#x at pc %d and nothing streamed",
					e.Prog.Name, f, jm.Streamed, src.Base+n, load)
			}
			if journal.Undo(); !bytes.Equal(k.Bytes(dst.Base, n), before) {
				t.Errorf("%s: Undo after the fault did not restore dst", e.Prog.Name)
			}
		}
	}
}
