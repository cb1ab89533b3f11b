package aegis

import (
	"errors"
	"fmt"
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

	held := k.Bytes(base, 64) // must survive the re-slice below
	held[0] = 0xAB
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
	if v, err := k.Mem.Load(base, 1); err != nil || v[0] != 0xAB {
		t.Errorf("a Bytes slice taken before AllocPhys no longer aliases memory (read %#x, %v)", v, err)
	}
	if k.MemSize() != HostMemSize {
		t.Errorf("MemSize %d, want %d", k.MemSize(), HostMemSize)
	}
}

// arenaTestSize is a host size nothing else in the package uses, so the
// tests below know exactly what is on its free list.
const arenaTestSize = 3<<20 + 4096

// TestArenaReuseIsClean: whatever a host wrote, the next host to lease its
// arena sees zeros across the whole capacity, and the return cleared
// exactly the allocated prefix.
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
	if len(k2.Mem.Data) != 0 || len(full) != arenaTestSize {
		t.Fatalf("fresh host exposes %d bytes of a %d-byte arena", len(k2.Mem.Data), len(full))
	}
	for i, b := range full {
		if b != 0 {
			t.Fatalf("reused arena has %#x at offset %d (prefix was %d)", b, i, prefix)
		}
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
	if k.Mem.Data != nil || k.MemSize() != 0 {
		t.Errorf("closed host still has Data len %d, MemSize %d", len(k.Mem.Data), k.MemSize())
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
// way ashbench -parallel N builds and closes worlds: every lease must be
// all-zero and private to its holder. Run under -race.
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
