package core_test

import (
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
