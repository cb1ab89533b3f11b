package mach

import (
	"testing"
	"testing/quick"

	"ashs/internal/sim"
)

func TestCyclesUsRoundTrip(t *testing.T) {
	p := DS5000_240()
	if got := p.Cycles(1); got != 40 {
		t.Fatalf("Cycles(1us) = %d, want 40", got)
	}
	if got := p.Us(40); got != 1 {
		t.Fatalf("Us(40) = %v, want 1", got)
	}
	if got := p.Us(p.Cycles(96)); got != 96 {
		t.Fatalf("round trip 96us = %v", got)
	}
}

func TestMBps(t *testing.T) {
	p := DS5000_240()
	// 4096 bytes in 8192 cycles (204.8us) = 20 MB/s: the calibration anchor
	// for Table III's single-copy row.
	got := p.MBps(4096, 8192)
	if got < 19.99 || got > 20.01 {
		t.Fatalf("MBps = %v, want 20", got)
	}
}

func TestCacheColdLoadsMissOncePerLine(t *testing.T) {
	p := DS5000_240()
	c := NewCache(p)
	cost := c.LoadRange(0x1000, 4096)
	// 256 lines: each misses once (1+12) then 3 hits (1 each) = 16/line.
	want := int64(256 * 16)
	if int64(cost) != want {
		t.Fatalf("cold LoadRange cost = %d, want %d", cost, want)
	}
	if c.Misses != 256 || c.Hits != 768 {
		t.Fatalf("misses=%d hits=%d, want 256/768", c.Misses, c.Hits)
	}
}

func TestCacheWarmLoadsAllHit(t *testing.T) {
	p := DS5000_240()
	c := NewCache(p)
	c.LoadRange(0x1000, 4096)
	c.Misses, c.Hits = 0, 0
	cost := c.LoadRange(0x1000, 4096)
	if int64(cost) != 1024 {
		t.Fatalf("warm LoadRange cost = %d, want 1024", cost)
	}
	if c.Misses != 0 {
		t.Fatalf("warm loads missed %d times", c.Misses)
	}
}

func TestCacheDirectMappedConflict(t *testing.T) {
	p := DS5000_240()
	c := NewCache(p)
	// Two addresses 64KB apart map to the same line in a 64KB cache.
	c.Load(0x0000)
	if !c.Resident(0x0000) {
		t.Fatal("line not resident after load")
	}
	c.Load(0x10000)
	if c.Resident(0x0000) {
		t.Fatal("conflicting line did not evict")
	}
	if !c.Resident(0x10000) {
		t.Fatal("new line not resident")
	}
}

func TestCacheStoresWriteValidate(t *testing.T) {
	p := DS5000_240()
	c := NewCache(p)
	cost := c.Store(0x2000)
	if int(cost) != p.StoreCycles {
		t.Fatalf("store cost = %d, want %d", cost, p.StoreCycles)
	}
	// Write-validate: the stored line reads back as cached.
	if !c.Resident(0x2000) {
		t.Fatal("store did not validate the line")
	}
	// A store does not evict an unrelated resident line.
	c.Load(0x3000)
	c.Store(0x3000)
	if !c.Resident(0x3000) {
		t.Fatal("store evicted a resident line")
	}
}

func TestFlushRange(t *testing.T) {
	p := DS5000_240()
	c := NewCache(p)
	c.Warm(0x1000, 256)
	c.FlushRange(0x1000, 256)
	for off := uint32(0); off < 256; off += 16 {
		if c.Resident(0x1000 + off) {
			t.Fatalf("line at +%d still resident after FlushRange", off)
		}
	}
}

func TestFlushRangePartialDoesNotTouchNeighbors(t *testing.T) {
	p := DS5000_240()
	c := NewCache(p)
	c.Warm(0x1000, 64)
	c.FlushRange(0x1010, 16) // exactly one line
	if c.Resident(0x1010) {
		t.Fatal("flushed line resident")
	}
	if !c.Resident(0x1000) || !c.Resident(0x1020) {
		t.Fatal("neighbor lines were flushed")
	}
}

func TestWarmMatchesLoadResidency(t *testing.T) {
	p := DS5000_240()
	err := quick.Check(func(addr uint32, n uint16) bool {
		addr &= 0x00fffffc // word aligned
		size := (int(n%4096) + 4) &^ 3
		a := NewCache(p)
		b := NewCache(p)
		a.Warm(addr, size)
		b.LoadRange(addr, size)
		for off := 0; off < size; off += 4 {
			if a.Resident(addr+uint32(off)) != b.Resident(addr+uint32(off)) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationSingleCopy(t *testing.T) {
	// The DESIGN.md §1 anchor: an uncached word-copy loop of 4096 bytes
	// should cost 8 cycles/word -> 20 MB/s.
	p := DS5000_240()
	c := NewCache(p)
	var cost int64
	// Conflict-free placement (distinct modulo the 64-KB cache).
	src, dst := uint32(0x10000), uint32(0x24000)
	for off := 0; off < 4096; off += 4 {
		cost += int64(c.Load(src + uint32(off)))
		cost += int64(c.Store(dst + uint32(off)))
		cost += int64(p.LoopOverhead)
	}
	mbps := p.MBps(4096, sim.Time(cost))
	if mbps < 19 || mbps > 21 {
		t.Fatalf("single copy = %.2f MB/s, want ~20", mbps)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := DS5000_240()
	q := p.Clone()
	q.MHz = 66
	if p.MHz != 40 {
		t.Fatal("Clone shares storage with original")
	}
}
