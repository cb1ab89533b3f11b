package aegis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ashs/internal/mach"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// isBadAddr reports whether err is the fault an out-of-range access takes.
func isBadAddr(err error) bool {
	var f *vcode.Fault
	return errors.As(err, &f) && f.Kind == vcode.FaultBadAddr
}

// panicText runs fn and returns what it panicked with, "" if it did not.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestArenaBrkIsTheLimit: memory the kernel has not allocated is not there.
// A load or store just above brk faults, a Bytes view of it panics naming
// the host, and the same address works once an AllocPhys covers it.
func TestArenaBrkIsTheLimit(t *testing.T) {
	k := newHost(sim.NewEngine(), "edgehost")
	defer k.Close()
	base, err := k.AllocPhys(64, "first")
	if err != nil {
		t.Fatal(err)
	}
	above := base + 64 // == brk: the first unallocated byte
	if err := vcode.Store32(k.Mem, above-4, 7); err != nil {
		t.Fatalf("store to the last allocated word: %v", err)
	}
	if _, err := vcode.Load32(k.Mem, above); !isBadAddr(err) {
		t.Errorf("Load32 just above brk: %v, want FaultBadAddr", err)
	}
	if err := vcode.Store32(k.Mem, above, 1); !isBadAddr(err) {
		t.Errorf("Store32 just above brk: %v, want FaultBadAddr", err)
	}
	if _, err := vcode.Load32(k.Mem, above-2); !isBadAddr(err) {
		t.Errorf("Load32 straddling brk: %v, want FaultBadAddr", err)
	}
	for _, view := range []struct {
		addr uint32
		n    int
	}{
		{above, 4},     // just above brk
		{base + 60, 8}, // straddling it
		{above + 1, 0}, // empty, but past the end
	} {
		msg := panicText(func() { k.Bytes(view.addr, view.n) })
		if !strings.Contains(msg, "edgehost") || !strings.Contains(msg, "outside allocated memory") {
			t.Errorf("Bytes(%#x, %d) with brk at %#x panicked with %q, want the host named",
				view.addr, view.n, above, msg)
		}
	}

	if _, err := k.AllocPhys(64, "second"); err != nil {
		t.Fatal(err)
	}
	if err := vcode.Store32(k.Mem, above, 0xfeedface); err != nil {
		t.Errorf("Store32 at the old brk after AllocPhys: %v", err)
	}
	if v, err := vcode.Load32(k.Mem, above); err != nil || v != 0xfeedface {
		t.Errorf("Load32 at the old brk after AllocPhys: %#x, %v", v, err)
	}
	if b := k.Bytes(above, 4); b[0] != 0xfe || cap(b) != 4 {
		t.Errorf("Bytes at the old brk after AllocPhys: % x cap %d", b, cap(b))
	}
	if k.MemSize() != HostMemSize {
		t.Errorf("MemSize %d, want %d", k.MemSize(), HostMemSize)
	}
}

// arenaTestSize is a host size nothing else in the package uses, so the
// tests below know exactly what is on its free list.
const arenaTestSize = 3<<20 + 4096

// TestArenaReuseIsClean: whatever a host wrote, the next host to lease its
// arena — the same backing, promoted past arenaStart by the writer, with no
// new one minted — sees zeros across the whole capacity, and the return
// cleared exactly the allocated prefix, every page of which was written.
func TestArenaReuseIsClean(t *testing.T) {
	prof := mach.DS5000_240()
	k := NewKernelMem("dirty", sim.NewEngine(), prof, arenaTestSize)
	for _, n := range []int{100, 1 << 20, 4096 + 3} {
		if _, err := k.AllocPhys(n, "dirt"); err != nil {
			t.Fatal(err)
		}
	}
	prefix := len(k.Mem.Data)
	if prefix != int(k.brk-HostMemBase) || prefix < 1<<20 {
		t.Fatalf("Data is %d bytes with brk at offset %d", prefix, k.brk-HostMemBase)
	}
	for i, b := 0, k.Bytes(HostMemBase, prefix); i < len(b); i++ {
		b[i] = 0xFF
	}
	last := HostMemBase + uint32(prefix)
	half, err1 := k.Mem.Store(last-6, 2)
	one, err2 := k.Mem.Store(HostMemBase, 1)
	if vcode.Store32(k.Mem, last-4, 0xdeadbeef) != nil || err1 != nil || err2 != nil {
		t.Fatal("store inside the allocated prefix failed")
	}
	half[0], half[1], one[0] = 0xbe, 0xef, 0x5A
	first := &k.arena[:1][0]

	before := ArenaStats()
	k.Close()
	mid := ArenaStats()
	if mid.Returned != before.Returned+1 || mid.ZeroedBytes != before.ZeroedBytes+uint64(prefix) {
		t.Errorf("Close: Returned %d -> %d, ZeroedBytes %d -> %d, want +1 and +%d",
			before.Returned, mid.Returned, before.ZeroedBytes, mid.ZeroedBytes, prefix)
	}

	k2 := NewKernelMem("clean", sim.NewEngine(), prof, arenaTestSize)
	defer k2.Close()
	after := ArenaStats()
	if after.Grown != mid.Grown || after.Leases != mid.Leases+1 {
		t.Errorf("re-lease: Grown %d -> %d, Leases %d -> %d", mid.Grown, after.Grown, mid.Leases, after.Leases)
	}
	full := k2.arena[:cap(k2.arena)]
	if &full[0] != first {
		t.Fatal("the re-lease did not receive the returned arena")
	}
	if len(k2.Mem.Data) != 0 || k2.MemSize() != arenaTestSize {
		t.Fatalf("fresh host exposes %d bytes and reports %d bytes of memory", len(k2.Mem.Data), k2.MemSize())
	}
	for i, b := range full {
		if b != 0 {
			t.Fatalf("reused arena has %#x at offset %d (prefix was %d)", b, i, prefix)
		}
	}
}

// TestArenaPromotion: a host that allocates past arenaStart moves to an
// arena of its full memory size once. Every address and byte stays where it
// was, a slice taken before the move reads poison, the memory size and the
// exhaustion limit are the host's throughout, and the next lease of its
// geometry gets the promoted arena without minting one.
func TestArenaPromotion(t *testing.T) {
	const size = 3 << 20
	prof := mach.DS5000_240()
	arenas.Lock()
	delete(arenas.free, leaseKey{size, prof.CacheBytes, prof.LineBytes}) // start from a new arena
	arenas.Unlock()
	k := NewKernelMem("grows", sim.NewEngine(), prof, size)
	if cap(k.arena) != arenaStart || k.MemSize() != size {
		t.Fatalf("new host: arena of %d bytes, MemSize %d; want %d and %d", cap(k.arena), k.MemSize(), arenaStart, size)
	}
	low, err := k.AllocPhys(arenaStart/2, "low")
	if err != nil {
		t.Fatal(err)
	}
	held := k.Bytes(low, arenaStart/2)
	for i := range held {
		held[i] = byte(i*7 + 1)
	}
	want := bytes.Clone(held)
	if err := vcode.Store32(k.Mem, low, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(want, 0xfeedface)

	high, err := k.AllocPhys(arenaStart, "past the start")
	if err != nil {
		t.Fatal(err)
	}
	if high != low+arenaStart/2 || cap(k.arena) != size || k.MemSize() != size {
		t.Fatalf("promotion: AllocPhys at %#x, arena of %d bytes, MemSize %d", high, cap(k.arena), k.MemSize())
	}
	if got := k.Bytes(low, len(want)); !bytes.Equal(got, want) {
		t.Error("the promoted arena lost bytes of the allocated prefix")
	}
	if v, err := vcode.Load32(k.Mem, low); err != nil || v != 0xfeedface {
		t.Errorf("Load32 through Mem after the promotion: %#x, %v", v, err)
	}
	if !bytes.Equal(k.Bytes(high, arenaStart), make([]byte, arenaStart)) {
		t.Error("memory the promotion exposed is not zero")
	}
	for i, b := range held {
		if b != poisonByte {
			t.Fatalf("a slice held across the promotion reads %#x at %d, want the poison %#x", b, i, poisonByte)
		}
	}

	last := size - int(k.brk-HostMemBase)
	if _, err := k.AllocPhys(last+1, "one byte too many"); err == nil {
		t.Error("AllocPhys one byte past the memory size succeeded")
	}
	if _, err := k.AllocPhys(last, "the rest"); err != nil || k.MemSize() != size || len(k.Mem.Data) != size {
		t.Errorf("AllocPhys of the rest: %v; MemSize %d, Data %d bytes", err, k.MemSize(), len(k.Mem.Data))
	}
	promoted := &k.arena[:1][0]
	k.Close()
	if k.MemSize() != 0 {
		t.Errorf("MemSize %d after Close", k.MemSize())
	}

	mid := ArenaStats()
	k2 := NewKernelMem("next", sim.NewEngine(), prof, size)
	defer k2.Close()
	if after := ArenaStats(); after.Grown != mid.Grown || after.Leases != mid.Leases+1 {
		t.Errorf("re-lease: Grown %d -> %d, Leases %d -> %d", mid.Grown, after.Grown, mid.Leases, after.Leases)
	}
	if full := k2.arena[:cap(k2.arena)]; &full[0] != promoted || len(full) != size {
		t.Fatalf("the re-lease did not receive the promoted arena (%d bytes)", len(full))
	}
}

// TestArenaUseAfterClose: a closed host has no memory. Every entry point
// faults or panics, and closing again changes nothing.
func TestArenaUseAfterClose(t *testing.T) {
	k := NewKernelMem("gonehost", sim.NewEngine(), mach.DS5000_240(), arenaTestSize)
	base, err := k.AllocPhys(4096, "page")
	if err != nil {
		t.Fatal(err)
	}
	k.Close()
	if k.Mem.Data != nil || k.MemSize() != 0 || k.Cache != nil {
		t.Errorf("closed host still has Data len %d, MemSize %d, Cache %p", len(k.Mem.Data), k.MemSize(), k.Cache)
	}
	if _, err := vcode.Load32(k.Mem, base); !isBadAddr(err) {
		t.Errorf("Load32 on a closed host: %v, want FaultBadAddr", err)
	}
	if err := vcode.Store32(k.Mem, base, 1); !isBadAddr(err) {
		t.Errorf("Store32 on a closed host: %v, want FaultBadAddr", err)
	}
	for what, fn := range map[string]func(){
		"Bytes":     func() { k.Bytes(base, 4) },
		"AllocPhys": func() { _, _ = k.AllocPhys(64, "late") },
	} {
		if msg := panicText(fn); !strings.Contains(msg, "gonehost") || !strings.Contains(msg, "closed host") {
			t.Errorf("%s on a closed host panicked with %q", what, msg)
		}
	}
	before := ArenaStats()
	k.Close()
	if after := ArenaStats(); after != before {
		t.Errorf("second Close moved the pool: %+v -> %+v", before, after)
	}
}

// TestArenaConcurrentLeases hammers the pool from several goroutines, the
// way ashbench -parallel N builds and closes worlds: every lease — memory
// and cache — must be clean and private to its holder. Run under -race.
func TestArenaConcurrentLeases(t *testing.T) {
	const workers, rounds = 8, 40
	prof := mach.DS5000_240()
	before := ArenaStats()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				size := arenaTestSize + 4096*(r%2) // two free lists
				k := NewKernelMem(fmt.Sprintf("w%d", g), sim.NewEngine(), prof, size)
				n := 4096 * (1 + (g+r)%7)
				base, err := k.AllocPhys(n, "scribble")
				if err != nil {
					t.Error(err)
					return
				}
				b := k.Bytes(base, n)
				for i := range b {
					if b[i] != 0 {
						t.Errorf("worker %d round %d: leased memory has %#x at %d", g, r, b[i], i)
						return
					}
					b[i] = byte(g + 1)
				}
				for i := range b {
					if b[i] != byte(g+1) {
						t.Errorf("worker %d round %d: another holder wrote its arena", g, r)
						return
					}
				}
				if k.Cache.Hits+k.Cache.Misses+k.Cache.Stores != 0 {
					t.Errorf("worker %d round %d: leased cache has counts", g, r)
					return
				}
				k.Cache.CopyRange(base, base+uint32(n/2), n/2)
				k.Close()
			}
		}(g)
	}
	wg.Wait()
	after := ArenaStats()
	if n := uint64(workers * rounds); after.Leases-before.Leases != n || after.Returned-before.Returned != n {
		t.Errorf("leases %d, returned %d, want %d each", after.Leases-before.Leases, after.Returned-before.Returned, n)
	}
	if grown := after.Grown - before.Grown; grown > 2*workers {
		t.Errorf("pool grew by %d arenas for %d concurrent holders of two sizes", grown, workers)
	}
}

// TestArenaScatteredWritesLeaveNextLeaseZero: a host writes a few bytes here
// and there — a page's last byte, a page's first word and nothing else, the
// last byte of a partial final page, now and then a zero — through Bytes and
// through Mem. The next lease of its arena is all-zero over its whole
// capacity, the return cleared exactly the pages that held a nonzero byte,
// and a host that wrote nothing costs its return nothing.
func TestArenaScatteredWritesLeaveNextLeaseZero(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	prof := mach.DS5000_240()
	for round := 0; round < 40; round++ {
		k := NewKernelMem("scatter", sim.NewEngine(), prof, arenaTestSize)
		n := 1 + rng.Intn(arenaTestSize)
		if round%4 == 0 {
			n = (n + PageSize - 1) &^ (PageSize - 1) // no partial final page
		}
		base, err := k.AllocPhys(n, "scatter")
		if err != nil || base != HostMemBase {
			t.Fatalf("AllocPhys(%d) = %#x, %v", n, base, err)
		}
		mem := k.Bytes(base, n)
		shadow := map[int]byte{} // offset -> last value written there
		pages := (n + PageSize - 1) / PageSize
		for i := rng.Intn(12); i >= 0; i-- {
			pg := rng.Intn(pages)
			switch rng.Intn(4) {
			case 0: // a page's last byte
				if off := pg*PageSize + PageSize - 1; off < n {
					mem[off] = 0x80
					shadow[off] = 0x80
				}
			case 1: // a page's first word only, stored through Mem
				if off := pg * PageSize; off+4 <= n {
					if err := vcode.Store32(k.Mem, base+uint32(off), 1+rng.Uint32()%0xfffffffe); err != nil {
						t.Fatal(err)
					}
					for j := off; j < off+4; j++ {
						shadow[j] = mem[j]
					}
				}
			case 2: // the last byte of the allocation
				v := byte(1 + rng.Intn(255))
				mem[n-1], shadow[n-1] = v, v
			case 3: // anywhere, maybe a zero over an earlier write
				off, v := rng.Intn(n), byte(rng.Intn(2))
				mem[off], shadow[off] = v, v
			}
		}
		written := map[int]bool{}
		for off, v := range shadow {
			if v != 0 {
				written[off/PageSize] = true
			}
		}
		want := 0
		for pg := range written {
			want += min(PageSize, n-pg*PageSize)
		}
		first := &k.arena[:1][0]

		before := ArenaStats()
		k.Close()
		if got := ArenaStats().ZeroedBytes - before.ZeroedBytes; got != uint64(want) {
			t.Fatalf("round %d: return cleared %d bytes, want %d (%d written pages of a %d-byte prefix)",
				round, got, want, len(written), n)
		}

		k2 := NewKernelMem("next", sim.NewEngine(), prof, arenaTestSize)
		full := k2.arena[:cap(k2.arena)]
		if &full[0] != first {
			t.Fatal("the re-lease did not receive the returned arena")
		}
		for off := 0; off < len(full); off += PageSize {
			if pg := full[off:min(off+PageSize, len(full))]; !bytes.Equal(pg, zeroPage[:len(pg)]) {
				t.Fatalf("round %d: reused arena has a nonzero byte in the page at %d (prefix was %d)", round, off, n)
			}
		}
		if _, err := k2.AllocPhys(len(full), "untouched"); err != nil {
			t.Fatal(err)
		}
		before = ArenaStats()
		k2.Close()
		if got := ArenaStats().ZeroedBytes - before.ZeroedBytes; got != 0 {
			t.Fatalf("round %d: a host that wrote nothing cost its return %d cleared bytes", round, got)
		}
	}
}

// cacheOp is one step of a random cache trace.
type cacheOp struct {
	kind     int
	src, dst uint32
	n        int
}

// randomCacheTrace returns n steps over an address range four caches wide,
// so lines conflict.
func randomCacheTrace(rng *rand.Rand, p *mach.Profile, n int) []cacheOp {
	span := uint32(4 * p.CacheBytes)
	ops := make([]cacheOp, n)
	for i := range ops {
		ops[i] = cacheOp{kind: rng.Intn(4), src: rng.Uint32() % span, dst: rng.Uint32() % span, n: rng.Intn(600)}
	}
	return ops
}

// runCacheTrace applies ops to c and returns what each step charged.
func runCacheTrace(c *mach.Cache, ops []cacheOp) []sim.Time {
	cyc := make([]sim.Time, len(ops))
	for i, op := range ops {
		switch op.kind {
		case 0:
			cyc[i] = c.Load(op.src)
		case 1:
			cyc[i] = c.Store(op.dst)
		case 2:
			cyc[i] = c.CopyRange(op.src, op.dst, op.n)
		case 3:
			c.FlushRange(op.src, op.n)
		}
	}
	return cyc
}

// TestArenaRecycledCacheMatchesNewCache: the cache a host leases with its
// arena is the one the previous holder dirtied, and it charges what a new
// one would. It comes back with every counter at zero, and under a profile
// with other costs and the same geometry it charges, step for step over a
// random Load/Store/CopyRange/FlushRange trace, what mach.NewCache of that
// profile charges, ending with the same counters and the same lines
// resident.
func TestArenaRecycledCacheMatchesNewCache(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	base := mach.DS5000_240()
	for round := 0; round < 20; round++ {
		k := NewKernelMem("dirty", sim.NewEngine(), base, arenaTestSize)
		runCacheTrace(k.Cache, randomCacheTrace(rng, base, 500))
		old := k.Cache
		k.Close()

		p := base.Clone()
		p.LoadHit, p.MissPenalty, p.StoreCycles = 1+rng.Intn(3), 5+rng.Intn(30), 1+rng.Intn(4)
		k2 := NewKernelMem("recycled", sim.NewEngine(), p, arenaTestSize)
		got := k2.Cache
		if got != old {
			t.Fatal("the re-lease did not receive the returned cache")
		}
		if got.Hits != 0 || got.Misses != 0 || got.Stores != 0 {
			t.Fatalf("recycled cache starts at %d hits, %d misses, %d stores", got.Hits, got.Misses, got.Stores)
		}
		want := mach.NewCache(p)
		ops := randomCacheTrace(rng, p, 500)
		gc, wc := runCacheTrace(got, ops), runCacheTrace(want, ops)
		for i := range ops {
			if gc[i] != wc[i] {
				t.Fatalf("round %d step %d %+v: recycled cache charged %d, new cache %d", round, i, ops[i], gc[i], wc[i])
			}
		}
		if got.Hits != want.Hits || got.Misses != want.Misses || got.Stores != want.Stores {
			t.Fatalf("round %d: counters %d/%d/%d, new cache %d/%d/%d",
				round, got.Hits, got.Misses, got.Stores, want.Hits, want.Misses, want.Stores)
		}
		for a := uint32(0); a < uint32(4*p.CacheBytes); a += uint32(p.LineBytes) {
			if got.Resident(a) != want.Resident(a) {
				t.Fatalf("round %d: line %#x resident %v in the recycled cache, %v in a new one",
					round, a, got.Resident(a), want.Resident(a))
			}
		}
		k2.Close()
	}
}
