package hotpath

import (
	"testing"

	"ashs/internal/mach"
	"ashs/internal/sandbox"
	"ashs/internal/vcode"
)

func BenchmarkDPFTrieWalk(b *testing.B)         { DPFTrieWalk(b) }
func BenchmarkDPFLinearScan(b *testing.B)       { DPFLinearScan(b) }
func BenchmarkVCODEDispatch(b *testing.B)       { VCODEDispatch(b) }
func BenchmarkVCODEBranchy(b *testing.B)        { VCODEBranchy(b) }
func BenchmarkCachePass(b *testing.B)           { CachePass(b) }
func BenchmarkDILPRun(b *testing.B)             { DILPRun(b) }
func BenchmarkSandboxInstrument(b *testing.B)   { SandboxInstrument(b) }
func BenchmarkSimEventQueue(b *testing.B)       { SimEventQueue(b) }
func BenchmarkQueueTimerChurn(b *testing.B)     { QueueTimerChurn(b) }
func BenchmarkQueueTwoHost(b *testing.B)        { QueueTwoHost(b) }
func BenchmarkQueueFanIn(b *testing.B)          { QueueFanIn(b) }
func BenchmarkProcSwitch(b *testing.B)          { ProcSwitch(b) }
func BenchmarkProcSwitchContended(b *testing.B) { ProcSwitchContended(b) }
func BenchmarkPacketPath(b *testing.B)          { PacketPath(b) }
func BenchmarkPacketPathAN2(b *testing.B)       { PacketPathAN2(b) }
func BenchmarkTCPSegment(b *testing.B)          { TCPSegment(b) }

// TestBodiesRun drives each benchmark body through testing.Benchmark —
// the harness cmd/perfbench replays them with — so a fixture regression
// fails `go test` even when -bench is not passed. It is also the zero-alloc
// hot-path gate (ci.sh runs it by name): timings vary by machine and are
// never asserted, but allocation counts are deterministic, and the demux,
// dispatch, event-queue, process-switch and packet paths must not allocate
// per operation; nor may the cache model's range charging, the DILP
// engine's run or a steady-state TCP segment.
// SandboxInstrument is download-time work and allocates by design.
func TestBodiesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark bodies are slow under -short")
	}
	for _, bm := range []struct {
		name      string
		fn        func(*testing.B)
		zeroAlloc bool
	}{
		{"DPFTrieWalk", DPFTrieWalk, true},
		{"DPFLinearScan", DPFLinearScan, true},
		{"VCODEDispatch", VCODEDispatch, true},
		{"VCODEBranchy", VCODEBranchy, true},
		{"CachePass", CachePass, true},
		{"DILPRun", DILPRun, true},
		{"SandboxInstrument", SandboxInstrument, false},
		{"SimEventQueue", SimEventQueue, true},
		{"QueueTimerChurn", QueueTimerChurn, true},
		{"QueueTwoHost", QueueTwoHost, true},
		{"QueueFanIn", QueueFanIn, true},
		{"ProcSwitch", ProcSwitch, true},
		{"ProcSwitchContended", ProcSwitchContended, true},
		{"PacketPath", PacketPath, true},
		{"PacketPathAN2", PacketPathAN2, true},
		{"TCPSegment", TCPSegment, true},
	} {
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			t.Errorf("%s did not run", bm.name)
		} else if a := r.AllocsPerOp(); bm.zeroAlloc && a != 0 {
			t.Errorf("zero-alloc hot-path regression: %s reports %d allocs/op", bm.name, a)
		}
	}
}

// TestHandlerProgramShape pins the VCODE fixture: the handler really sums
// the packet words, and the default policy really instruments it (the
// SandboxInstrument benchmark must be measuring a non-trivial rewrite).
func TestHandlerProgramShape(t *testing.T) {
	prog := NewHandlerProgram(0)
	mem := vcode.NewFlatMem(0x1000, HandlerBytes)
	want := uint32(0)
	for j := 0; j < HandlerBytes/4; j++ {
		if err := vcode.Store32(mem, uint32(0x1000+4*j), uint32(j)); err != nil {
			t.Fatal(err)
		}
		want += uint32(j)
	}
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	if f := m.Run(prog); f != nil {
		t.Fatal(f)
	}
	if m.Regs[vcode.RRet] != want {
		t.Fatalf("checksum = %d, want %d", m.Regs[vcode.RRet], want)
	}
	sp, err := sandbox.Sandbox(prog, sandbox.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if sp.AddedStatic == 0 {
		t.Fatal("default policy added no instrumentation to the handler")
	}
}

// TestHeaderCheckShape pins the VCODEBranchy fixture: the benchmark packet
// is accepted on the long path, none of it by the streaming executor, and
// the forward branches really do select: a TCP frame and a foreign
// ethertype leave early.
func TestHeaderCheckShape(t *testing.T) {
	prog := NewHeaderCheckProgram()
	for _, c := range []struct {
		name   string
		mutate func(pkt []byte)
		ret    uint32
		insns  int64
	}{
		{"udp", func([]byte) {}, 1, 20},
		{"udp with options", func(pkt []byte) { pkt[43] = 7 }, 1, 22},
		{"tcp", func(pkt []byte) { pkt[23] = 6 }, 2, 10},
		{"not ip", func(pkt []byte) { pkt[12] = 0x86 }, 0, 6},
		{"port out of range", func(pkt []byte) { pkt[36] = 0x40 }, 0, 18},
	} {
		mem := NewHeaderCheckPacket()
		c.mutate(mem.Data)
		m := vcode.NewMachine(mach.DS5000_240(), mem)
		if f := m.Run(prog); f != nil {
			t.Fatalf("%s: %v", c.name, f)
		}
		if m.Regs[vcode.RRet] != c.ret || m.Insns != c.insns || m.Streamed != 0 {
			t.Errorf("%s: returned %d after %d instructions (%d streamed), want %d after %d (0)",
				c.name, m.Regs[vcode.RRet], m.Insns, m.Streamed, c.ret, c.insns)
		}
	}
}

// TestLoadedEngineShape pins the fixture: the trie and the linear scan
// must agree on the demux result for the benchmark packet.
func TestLoadedEngineShape(t *testing.T) {
	e, pkt := NewLoadedEngine()
	if e.Len() != Filters {
		t.Fatalf("engine has %d filters, want %d", e.Len(), Filters)
	}
	id, _, ok := e.Demux(pkt)
	if !ok {
		t.Fatal("trie demux missed the benchmark packet")
	}
	lid, _, lok := e.DemuxLinear(pkt)
	if !lok || lid != id {
		t.Fatalf("linear demux disagrees: got (%v,%v), want (%v,true)", lid, lok, id)
	}
}
