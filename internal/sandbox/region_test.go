package sandbox

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ashs/internal/vcode"
	"ashs/internal/vcode/reopt"
)

// regionWord is the region's seed word at address a.
func regionWord(a uint32) uint32 { return a * 2654435761 }

// TestRegionSeedIsTheFormula: the template the harness copies is the
// per-word fill over [DiffBase, DiffLimit), and a variant's region reads as
// that fill to its last word. (TestLeasedHarnessMemoryReadsFresh holds a
// re-leased memory to a fresh one.)
func TestRegionSeedIsTheFormula(t *testing.T) {
	check := func(what string, region []byte) {
		t.Helper()
		if len(region) != DiffLimit-DiffBase {
			t.Fatalf("%s: %d bytes, want %d", what, len(region), DiffLimit-DiffBase)
		}
		for a := uint32(DiffBase); a < DiffLimit; a += 4 {
			if got := binary.BigEndian.Uint32(region[a-DiffBase:]); got != regionWord(a) {
				t.Fatalf("%s: word at %#x is %#x, want %#x", what, a, got, regionWord(a))
			}
		}
	}
	check("template", diffFill[:])

	x86 := DefaultPolicy()
	x86.Hardware = HardwareX86
	clean := assemble(t, func(b *vcode.Builder) { b.MovI(vcode.RRet, 0) })
	// A memory never leased: the free list is set aside while it is made.
	diffMems.Lock()
	saved := diffMems.free
	diffMems.free = nil
	diffMems.Unlock()
	fresh, err := newDiffVariant(clean, x86, &DiffConfig{})
	diffMems.Lock()
	diffMems.free = saved
	diffMems.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.release()
	check("fresh variant", fresh.region.Data)
}

// TestThreeWayNamesTheFirstRegionDifference: ThreeWay compares the regions
// as blocks and walks words only to name a difference. One word of one
// variant's region is made to differ — at the base, mid-region and the last
// word — through the setup hook, which runs once per variant in build order;
// the run must fail naming that address and that variant, as the per-word
// compare did.
func TestThreeWayNamesTheFirstRegionDifference(t *testing.T) {
	p := assemble(t, func(b *vcode.Builder) { b.MovI(vcode.RRet, 0) })
	// A profile of its own, so no profiling pre-pass runs the hook first.
	prof := &reopt.Profile{Handler: p.Name, Invocations: 1}
	for k := 1; k < 3; k++ {
		for _, addr := range []uint32{DiffBase, (DiffBase + DiffLimit) / 2, DiffLimit - 4} {
			built := 0
			cfg := DiffConfig{Setup: func(store func(addr, val uint32)) {
				if built == k {
					store(addr, ^regionWord(addr))
				}
				built++
			}}
			_, err := ThreeWay(p, prof, cfg)
			want := fmt.Sprintf("mem[%#x]: naive=%#x %s=%#x\n", addr, regionWord(addr), threeWayNames[k], ^regionWord(addr))
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s corrupted at %#x: got %v, want an error starting %q", threeWayNames[k], addr, err, want)
			}
			if built != 3 {
				t.Fatalf("the setup hook ran %d times, want once per variant", built)
			}
		}
	}
	// Uncorrupted, the same run is clean.
	if _, err := ThreeWay(p, prof, DiffConfig{}); err != nil {
		t.Fatal(err)
	}
}
