package bench

import (
	"testing"
	"unsafe"

	"ashs/internal/alloctest"
	"ashs/internal/workload"
)

// TestAllocFlatInMessages: a cell allocates what it keeps, not what it
// sends. For one full-size cell of each scale workload, of overload and of
// chaos, doubling the messages — a scale client's operations, an overload
// trace's arrivals, a chaos cell's TCP and NFS bytes — may grow the Go heap
// by what the longer run must keep and 64 KiB: the longer trace slice for
// overload, the larger NFS file for chaos, nothing for scale. Frames,
// requests, relay blobs and file growth are recycled or sized once.
func TestAllocFlatInMessages(t *testing.T) {
	type run struct {
		once, twice Cell
		keep        uint64 // what twice must keep beyond once
	}
	var runs []run
	for _, wl := range scaleWorkloads {
		runs = append(runs, run{scaleCell(wl.name, 64, 8), scaleCell(wl.name, 64, 16), 0})
	}
	ov := overloadCells(&Config{})[0]
	od := ov.drive.(overloadReplay)
	runs = append(runs, run{ov, onWorld(ov.Label, *ov.spec, overloadReplay{od.trace, 2 * od.events}),
		uint64(od.events) * uint64(unsafe.Sizeof(workload.Event{}))})
	ch := chaosCells(DefaultChaosParams())[0]
	cd := ch.drive.(chaosSoak)
	runs = append(runs, run{ch, onWorld(ch.Label, *ch.spec, chaosSoak{2 * cd.tcpBytes, 2 * cd.nfsBytes}),
		uint64(cd.nfsBytes)})

	cfg := &Config{}
	for _, r := range runs {
		allocs := func(c Cell) uint64 { return alloctest.Bytes(nil, func() { c.Run(cfg) }) }
		once, twice := allocs(r.once), allocs(r.twice)
		bound := r.keep + 64<<10
		t.Logf("%s: %d B at E messages, %d B at 2E", r.once.Label, once, twice)
		if twice > once+bound {
			t.Errorf("%s: %d B at E messages, %d B at 2E: +%d B, want at most +%d B (%d B kept)",
				r.once.Label, once, twice, twice-once, bound, r.keep)
		}
	}
}
