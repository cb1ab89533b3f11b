package core_test

import (
	"runtime"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/mach"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// TestCacheHitDownloadAllocations pins what installing a handler costs once
// its build is in the compile cache: the handler, its journal, its machine
// and its copy of the build, nothing per entry point.
func TestCacheHitDownloadAllocations(t *testing.T) {
	k := aegis.NewKernel("server", sim.NewEngine(), mach.DS5000_240())
	sys := core.NewSystem(k)
	owner := k.Spawn("app", func(p *aegis.Process) {})
	b := vcode.NewBuilder("download-allocs")
	b.MovI(vcode.RArg0, 0)
	b.Call("ash_msg_load")
	b.MovI(vcode.RRet, 0)
	b.Ret()
	prog := b.MustAssemble()
	sys.MustDownload(owner, prog, core.Options{}) // the miss
	allocs := testing.AllocsPerRun(100, func() {
		sys.MustDownload(owner, prog, core.Options{})
	})
	if allocs > 5 {
		t.Fatalf("a compile-cache-hit Download makes %.0f allocations, want at most 5", allocs)
	}
}

// TestDownloadsAreNotRetained: the system keeps no table of its handlers,
// so a handler the caller drops is garbage, whatever the system's age. One
// system takes 16 384 downloads of distinct programs; what stays live after
// them is the compile cache's bounded tables, not 1.4 KiB a download (22
// MiB when the system filed every handler in a map no code read).
func TestDownloadsAreNotRetained(t *testing.T) {
	k := aegis.NewKernel("server", sim.NewEngine(), mach.DS5000_240())
	sys := core.NewSystem(k)
	owner := k.Spawn("app", func(p *aegis.Process) {})
	download := func(i int) {
		b := vcode.NewBuilder("churn")
		r := b.Temp()
		b.MovI(r, int32(i))
		b.St32(r, 0, r)
		b.Mov(vcode.RRet, r)
		b.Ret()
		sys.MustDownload(owner, b.MustAssemble(), core.Options{})
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	download(-1) // the system's first download builds its entry-point table
	before := live()
	for i := 0; i < 16384; i++ {
		download(i)
	}
	after := live()
	runtime.KeepAlive(sys)
	grown := int64(after) - int64(before)
	t.Logf("live heap grew %d KiB over 16 384 downloads", grown>>10)
	if grown > 1<<20 {
		t.Errorf("live heap grew %d KiB over 16 384 downloads, want at most 1 MiB", grown>>10)
	}
}
