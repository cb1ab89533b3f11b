// Package hotpath holds wall-clock microbenchmarks for the simulator's
// hottest loops: the DPF discrimination-trie walk (every delivered
// packet), the event-queue schedule/dispatch cycle (every simulated
// action) and the engine<->process switch (every simulated block). The
// bodies live here, outside a _test.go file, so both
// `go test -bench` (internal/bench/hotpath) and the per-layer replay of
// cmd/perfbench run exactly the same code — the numbers perfbench reports
// are the numbers the bench wrappers measure.
package hotpath

import (
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/bench"
	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/pipe"
	"ashs/internal/proto/tcp"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

const (
	// Filters is the installed-filter population for the trie walk — the
	// many-client fan-in shape of the scale experiment, where each client
	// contributes one UDP port filter.
	Filters = 512

	// QueueDepth is the steady-state event population for the queue
	// benchmark: deep enough that heap reshuffles dominate, shallow
	// enough to stay cache-resident like a real run.
	QueueDepth = 1024

	// HandlerBytes is the packet the VCODE handler walks: one Ethernet
	// minimum frame, the message size every ASH invocation touches.
	HandlerBytes = 64

	// SegmentBytes is the buffer the cache-model benchmark charges: one
	// TCP segment at the paper's AN2 MSS, what every bulk-transfer pass of
	// the protocol libraries traverses.
	SegmentBytes = 3072

	// DILPBytes is the buffer the compiled DILP engine moves: the 4-KiB
	// message of Tables III and IV.
	DILPBytes = 4096

	// HandlerVariants is the distinct-program population for the
	// instrumentation benchmark. It deliberately exceeds the sandbox
	// compile cache's capacity so every Sandbox call measures a real
	// verify+instrument, not a memo hit.
	HandlerVariants = 512
)

// NewLoadedEngine builds a DPF engine with Filters per-client UDP port
// filters installed and returns it with a 64-byte packet that matches
// the median filter.
func NewLoadedEngine() (*dpf.Engine, []byte) {
	e := dpf.NewEngine()
	for i := 0; i < Filters; i++ {
		f := dpf.NewFilter().
			Eq16(12, 0x0800).        // ethertype IP
			Eq8(23, 17).             // protocol UDP
			Eq16(36, uint16(1000+i)) // destination port
		if _, err := e.Insert(f); err != nil {
			panic(err)
		}
	}
	pkt := make([]byte, 64)
	setUDPHeader(pkt, 1000+Filters/2)
	return e, pkt
}

// setUDPHeader writes the three fields the fixtures' filters and handlers
// look at: ethertype IP, protocol UDP, destination port.
func setUDPHeader(pkt []byte, port uint16) {
	pkt[12], pkt[13] = 0x08, 0x00
	pkt[23] = 17
	pkt[36], pkt[37] = byte(port>>8), byte(port)
}

// DPFTrieWalk measures one Demux through the discrimination trie with
// Filters filters installed: shared atoms are tested once, then the
// port atom discriminates by hash — the walk the paper's dynamic code
// generation argument is about.
func DPFTrieWalk(b *testing.B) {
	e, pkt := NewLoadedEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.Demux(pkt); !ok {
			b.Fatal("demux missed")
		}
	}
}

// DPFLinearScan is the MPF-style baseline: the same population demuxed
// by scanning filters one at a time. Kept beside DPFTrieWalk so the
// committed numbers document the gap the trie buys.
func DPFLinearScan(b *testing.B) {
	e, pkt := NewLoadedEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.DemuxLinear(pkt); !ok {
			b.Fatal("demux missed")
		}
	}
}

// NewHandlerProgram builds the representative ASH body both VCODE
// benchmarks run: a checksum loop over a HandlerBytes packet (load, add,
// advance, backward branch) followed by one store — the load-heavy,
// tight-loop shape the SFI instrumenter has the most to say about. tweak
// perturbs an immediate so distinct variants have distinct fingerprints.
func NewHandlerProgram(tweak int32) *vcode.Program {
	b := vcode.NewBuilder("cksum")
	base, acc, i, end, w := b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(base, 0x1000)
	b.MovI(acc, tweak)
	b.MovI(i, 0)
	b.MovI(end, HandlerBytes)
	loop := b.NewLabel()
	b.Bind(loop)
	b.Ld32X(w, base, i)
	b.AddU(acc, acc, w)
	b.AddIU(i, i, 4)
	b.BltU(i, end, loop)
	b.St32(base, 0, acc)
	b.Mov(vcode.RRet, acc)
	b.Ret()
	return b.MustAssemble()
}

// VCODEDispatch measures one full handler execution (16 loads + ALU + a
// store) over a resident packet: the per-message cost floor of every ASH
// invocation — the loop the paper attacks with dynamic code generation.
// Its load-only loop is not the copy+checksum that vcode.Machine streams
// (stream.go), so every instruction is interpreted; VCODEBranchy is the
// straight-line body beside it.
func VCODEDispatch(b *testing.B) {
	prog := NewHandlerProgram(0)
	mem := vcode.NewFlatMem(0x1000, HandlerBytes)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := m.Run(prog); f != nil {
			b.Fatal(f)
		}
	}
}

// NewHeaderCheckProgram builds the other handler shape: the header checks
// of a UDP demultiplexer written as straight-line code — loads at constant
// offsets, compares, forward branches taken and not, one store, no loop.
// Over NewHeaderCheckPacket it accepts (RRet = 1) after 20 instructions.
func NewHeaderCheckProgram() *vcode.Program {
	b := vcode.NewBuilder("hdrcheck")
	base, t, k := b.Temp(), b.Temp(), b.Temp()
	tcp, drop, noOpts, done := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.MovI(base, 0x1000)
	b.Ld16(t, base, 12) // ethertype
	b.MovI(k, 0x0800)
	b.Bne(t, k, drop)
	b.Ld8(t, base, 23) // protocol
	b.MovI(k, 6)
	b.Beq(t, k, tcp)
	b.MovI(k, 17)
	b.Bne(t, k, drop)
	b.Ld32(t, base, 40) // options word: none, the common case
	b.Beq(t, vcode.RZero, noOpts)
	b.AndI(t, t, 0xff)
	b.St32(base, 60, t)
	b.Bind(noOpts)
	b.Ld16(t, base, 36) // destination port in [1000, 1512)
	b.MovI(k, 1000)
	b.BltU(t, k, drop)
	b.MovI(k, 1512)
	b.BgeU(t, k, drop)
	b.St32(base, 56, t) // last port served
	b.MovI(vcode.RRet, 1)
	b.Jmp(done)
	b.Bind(tcp)
	b.MovI(vcode.RRet, 2)
	b.Jmp(done)
	b.Bind(drop)
	b.MovI(vcode.RRet, 0)
	b.Bind(done)
	b.Ret()
	return b.MustAssemble()
}

// NewHeaderCheckPacket is the HandlerBytes frame NewHeaderCheckProgram
// accepts, in a memory of its own at the address the program expects.
func NewHeaderCheckPacket() *vcode.FlatMem {
	mem := vcode.NewFlatMem(0x1000, HandlerBytes)
	setUDPHeader(mem.Data, 1000)
	return mem
}

// VCODEBranchy measures the interpreter's general loop, one instruction
// per dispatch: the header-check handler over a resident packet, forward
// branches taken and not where VCODEDispatch runs one backward loop.
func VCODEBranchy(b *testing.B) {
	prog := NewHeaderCheckProgram()
	m := vcode.NewMachine(mach.DS5000_240(), NewHeaderCheckPacket())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := m.Run(prog); f != nil || m.Regs[vcode.RRet] != 1 {
			b.Fatal("header check did not accept: ", f)
		}
	}
}

// CachePass measures the cache model on the charging pattern of the
// protocol libraries' data passes: one segment copied (CopyRange) out of
// a flushed receive buffer, then read back (LoadRange) from the now-warm
// destination — a miss per line, then all hits. The model is a simulator
// inside the simulator; this is what it costs per segment.
func CachePass(b *testing.B) {
	c := mach.NewCache(mach.DS5000_240())
	// Distinct lines of the 64-KiB cache, dst 4 bytes out of phase with src
	// within a line, as nearly all copied words of tcp-bulk and chaos are.
	const src, dst = 0x10000, 0x38004
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FlushRange(src, SegmentBytes)
		if c.CopyRange(src, dst, SegmentBytes)+c.LoadRange(dst, SegmentBytes) == 0 {
			b.Fatal("a segment pass cost nothing")
		}
	}
}

// DILPRun measures the compiled checksum+copy engine — the integrated
// loop the DILP compiler fuses from the Fig. 2 checksum pipe — moving
// DILPBytes through Machine.Run against a FlatMem and the cache model:
// the per-byte interpreter path of ash_dilp and the TCP fast path.
func DILPRun(b *testing.B) {
	pl := pipe.NewList(1)
	if _, _, err := pipe.Cksum(pl); err != nil {
		b.Fatal(err)
	}
	eng, err := pipe.Compile(pl, pipe.Options{Output: true})
	if err != nil {
		b.Fatal(err)
	}
	prof := mach.DS5000_240()
	m := vcode.NewMachine(prof, vcode.NewFlatMem(0, 1<<20))
	m.Cache = mach.NewCache(prof)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, f := eng.Run(m, 0x10000, 0x38004, DILPBytes); f != nil { // out of phase, as in CachePass
			b.Fatal(f)
		}
	}
}

// SandboxInstrument measures the download-time verify+instrument pass
// under the default MIPS software-protection policy. The variant pool
// overflows the compile cache, so every iteration pays the real static
// analysis and rewrite, the cost a kernel pays to accept one untrusted
// handler.
func SandboxInstrument(b *testing.B) {
	variants := make([]*vcode.Program, HandlerVariants)
	for i := range variants {
		variants[i] = NewHandlerProgram(int32(i + 1))
	}
	pol := sandbox.DefaultPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sandbox.Sandbox(variants[i%HandlerVariants], pol); err != nil {
			b.Fatal(err)
		}
	}
}

// SimEventQueue measures one schedule+dispatch through the engine's
// event queue at a steady depth of QueueDepth events: each fired event
// reschedules itself QueueDepth ticks out, so every iteration is exactly
// one pop and one push at full depth. Steady state must allocate
// nothing: the engine recycles fired events through its freelist.
func SimEventQueue(b *testing.B) {
	eng := sim.NewEngine()
	fired := 0
	for i := 0; i < QueueDepth; i++ {
		var self func()
		self = func() {
			fired++
			eng.Schedule(QueueDepth, self)
		}
		eng.ScheduleAt(sim.Time(i), self)
	}
	// One event fires per tick (initial events sit on distinct ticks and
	// every reschedule preserves that), so running through tick b.N-1
	// dispatches exactly b.N events.
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntil(sim.Time(b.N - 1))
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// QueueTimerChurn measures the retransmit-timer pattern on the dense
// schedule of SimEventQueue. Each dispatched event arms a timer a billion
// ticks out, cancels it (the reply almost always arrives first), and
// reschedules itself QueueDepth ticks out through the closure-free
// ScheduleArg path, so one iteration is one pop, one far insert, one
// remove, and one near insert — all at 0 allocs/op through the engine's
// event freelist.
func QueueTimerChurn(b *testing.B) {
	eng := sim.NewEngine()
	fired := 0
	var tick func(any)
	tick = func(a any) {
		fired++
		t := eng.ScheduleArg(1_000_000_000, tick, nil) // arm the reply-wait timer
		eng.Cancel(t)                                  // the reply arrived first
		eng.ScheduleArg(QueueDepth, tick, a)
	}
	for i := 0; i < QueueDepth; i++ {
		eng.ScheduleArgAt(sim.Time(i), tick, nil)
	}
	// As in SimEventQueue, exactly one event fires per tick.
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntil(sim.Time(b.N - 1))
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// QueueTwoHost measures the queue a ping-pong world keeps — the shape of
// rtt-small, tcp-bulk and chaos, which the two dense bodies above never
// show: three chains of events, each rescheduling itself 2000 to 20000
// cycles out (wire, interrupt and process wake-up latencies), so the
// population is three events thousands of cycles apart; every pop also
// arms and cancels one retransmit timer a million cycles out, the fourth.
func QueueTwoHost(b *testing.B) {
	eng := sim.NewEngine()
	rng := sim.NewRand(1)
	fired := 0
	var tick func(any)
	tick = func(any) {
		fired++
		if fired == b.N {
			eng.Stop()
		}
		eng.Cancel(eng.ScheduleArg(1_000_000, tick, nil))
		eng.ScheduleArg(2000+sim.Time(rng.Intn(18000)), tick, nil)
	}
	for i := 0; i < 3; i++ {
		eng.ScheduleArg(sim.Time(1+i), tick, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// QueueFanIn measures the queue of the scale experiment's server world at
// N = Filters: one parked retry timer per client about a million cycles
// out, and one chain of imminent packet events. Every pop schedules the
// next packet event 50 to 250 cycles on and re-arms one client's timer
// (a reply arrived, the next request went out) — a population of a few
// near events and hundreds of far ones.
func QueueFanIn(b *testing.B) {
	eng := sim.NewEngine()
	rng := sim.NewRand(1)
	expire := func(any) { panic("a parked retry timer fired") }
	timers := make([]sim.Timer, Filters)
	arm := func(i int) {
		timers[i] = eng.ScheduleArg(1_000_000+sim.Time(rng.Intn(65536)), expire, nil)
	}
	for i := range timers {
		arm(i)
	}
	fired := 0
	var tick func(any)
	tick = func(any) {
		fired++
		if fired == b.N {
			eng.Stop()
		}
		i := fired % Filters
		eng.Cancel(timers[i])
		arm(i)
		eng.ScheduleArg(50+sim.Time(rng.Intn(200)), tick, nil)
	}
	eng.ScheduleArg(1, tick, nil)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// ProcSwitch is the lone sleeper: a process sleeps one cycle at a time with
// nothing else in the world, the shape perfbench replays as
// sim.proc_switch_ns. It does not time a switch: the wake-up would always
// be the next event, so every Sleep is elided (the clock moves, the process
// keeps running) and what is measured is the best case — the cost of
// finding that out. ProcSwitchContended times the round trip itself.
func ProcSwitch(b *testing.B) {
	eng := sim.NewEngine()
	eng.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if now := eng.Now(); now != sim.Time(b.N) {
		b.Fatalf("clock at %d after %d one-cycle sleeps", now, b.N)
	}
}

// ProcSwitchContended measures one simulated context switch: two processes
// sleep two cycles at a time, one waking on even cycles and one on odd, so
// every Sleep finds the other's wake-up ahead of its own and none is
// elided. The blocked sleeper's own loop fires the other's wake-up and
// resumes that process itself (a direct switch, no trip through the
// engine); it sleeps in turn, its loop meets the first sleeper's wake-up,
// which is further up the resume stack, and yields back, and the first
// takes that wake-up in place. So the iterations alternate between a direct
// handoff — a bound query, a wake-up event scheduled, popped and fired, the
// process resumed and yielding back — and a wake-up fired in place, the
// unit every blocking syscall, Compute and Sleep that cannot be elided is
// made of. The wake-up carries the process as its argument, so the round
// trip builds no closure and allocates nothing.
func ProcSwitchContended(b *testing.B) {
	eng := sim.NewEngine()
	sleeper := func(n int, first sim.Time) func(*sim.Proc) {
		return func(p *sim.Proc) {
			if n > 0 {
				p.Sleep(first)
			}
			for i := 1; i < n; i++ {
				p.Sleep(2)
			}
		}
	}
	eng.Go("even", sleeper((b.N+1)/2, 2))
	eng.Go("odd", sleeper(b.N/2, 3))
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if now := eng.Now(); now != sim.Time(b.N+1) {
		b.Fatalf("clock at %d after %d interleaved two-cycle sleeps", now, b.N)
	}
	// Two starts and b.N wake-ups: the engine starts "even", every other
	// one is direct or in place, except that when "even" ends first the
	// engine resumes "odd" for its last.
	half := uint64(b.N+1) / 2
	if st := eng.Stats(); st.Handoffs != uint64(b.N)+2 || st.Elided != 0 || st.InPlace != half || st.Direct != half {
		b.Fatalf("of %d contended sleeps, %d handoffs, %d elided, %d woken in place and %d resumed directly; want %d, 0, %d, %d",
			b.N, st.Handoffs, st.Elided, st.InPlace, st.Direct, b.N+2, half, half)
	}
}

// packetPathWorld is the PacketPath fixture: one full aegis server host
// (Ethernet driver, DPF demux, downloaded handler — or the AN2 driver and
// a bound circuit) ping-ponging with a raw client port over a switch — the
// complete per-message path of the paper's Table I, wire to wire.
type packetPathWorld struct {
	eng *sim.Engine
	sw  *netdev.Switch
	srv *aegis.NIC
	cli *netdev.Port
	req []byte

	count, target int
}

// HandleMsg is the downloaded server handler: consume the message and
// send a fixed reply back to the client — the low-latency reply shape
// ASHs exist for.
func (w *packetPathWorld) HandleMsg(mc *aegis.MsgCtx) aegis.Disposition {
	mc.Send(w.cli.Addr(), 0, w.req[:32])
	return aegis.DispConsumed
}

// send leases a pooled buffer for the request frame and puts it on the
// wire from the client port.
func (w *packetPathWorld) send() {
	pkt := w.sw.LeaseData(w.req)
	pkt.Dst, pkt.VC = w.srv.Addr(), packetPathVC
	if err := w.cli.Transmit(pkt); err != nil {
		panic(err)
	}
}

// rx is the client's receive path: re-arm the ping-pong until target
// round trips have completed.
func (w *packetPathWorld) rx(pkt *netdev.PacketBuf) {
	w.count++
	if w.count >= w.target {
		w.eng.Stop()
		return
	}
	w.send()
}

// packetPathVC is the circuit the AN2 fixture binds (the Ethernet ignores
// a frame's VC).
const packetPathVC = 7

func newPacketPathWorld(an2 bool) *packetPathWorld {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	w := &packetPathWorld{eng: eng}
	k := aegis.NewKernel("srv", eng, prof)

	w.req = make([]byte, HandlerBytes)
	setUDPHeader(w.req, 1000)
	var bind *aegis.Binding
	var err error
	if an2 {
		w.sw = netdev.NewSwitch(eng, prof, netdev.AN2Config())
		a := aegis.NewAN2(k, w.sw)
		w.srv = &a.NIC
		bind, err = a.BindVC(nil, packetPathVC, 8, 4096)
	} else {
		w.sw = netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
		e := aegis.NewEthernet(k, w.sw)
		w.srv = &e.NIC
		bind, err = e.BindFilter(nil, dpf.NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq16(36, 1000))
	}
	if err != nil {
		panic(err)
	}
	bind.Handler = w
	w.cli = w.sw.NewPort()
	w.cli.SetReceiver(w.rx)
	return w
}

// run drives n round trips through the world.
func (w *packetPathWorld) run(n int) {
	w.target = w.count + n
	w.send()
	w.eng.Run()
	if w.count != w.target {
		panic("packet path bench: ping-pong stalled")
	}
}

// PacketPath measures one complete request/reply round trip through the
// redesigned buffer-lease pipeline: client transmit (pool lease) → switch
// delivery → Ethernet driver (frame check, DPF demux, striping DMA) →
// downloaded handler → committed reply lease → switch delivery → client
// re-arm. After warmup the pools and freelists are primed and the whole
// wire-to-wire path must run at 0 allocs/op.
func PacketPath(b *testing.B) { packetPath(b, false) }

// PacketPathAN2 is the same round trip through the other front half: the
// AN2 driver's circuit lookup and flat DMA into a per-circuit buffer, then
// the delivery tail the two devices share.
func PacketPathAN2(b *testing.B) { packetPath(b, true) }

func packetPath(b *testing.B, an2 bool) {
	w := newPacketPathWorld(an2)
	w.run(64) // warmup: mint pool buffers, contexts, events
	b.ReportAllocs()
	b.ResetTimer()
	w.run(b.N)
}

// TCPSegment measures one steady-state TCP data segment end to end between
// two AN2 hosts, both ends in the user-level library with checksums: the
// sender's checksum pass, the segment copied once into the retransmit store
// and once into the stack's transmit frame, the wire, the receiver's verify,
// read copy and acknowledgment, and the store's slab coming back on the ack.
// The connection is opened and a few windows are sent before the clock
// starts; from there a segment allocates nothing.
func TCPSegment(b *testing.B) {
	tb := bench.NewAN2Testbed(nil)
	const vc, warmup = 7, 16
	cfg := tcp.DefaultConfig()
	cfg.MSS = SegmentBytes
	tb.K2.Spawn("sink", func(p *aegis.Process) {
		conn, err := tcp.Accept(tb.StackAN2(p, 2, vc), cfg, 80)
		if err != nil {
			panic(err)
		}
		buf := p.AS.MustAlloc(SegmentBytes, "rx")
		for got := 0; got < (warmup+b.N)*SegmentBytes; {
			n, err := conn.Read(buf.Base, SegmentBytes)
			if err != nil {
				panic(err)
			}
			got += n
		}
		_ = conn.Close() // acknowledges what it read last
	})
	sent := 0
	tb.K1.Spawn("source", func(p *aegis.Process) {
		conn, err := tcp.Connect(tb.StackAN2(p, 1, vc), cfg, 1234, tb.IP2, 80)
		if err != nil {
			panic(err)
		}
		buf := p.AS.MustAlloc(SegmentBytes, "tx")
		for ; sent < warmup+b.N; sent++ {
			if sent == warmup {
				b.ReportAllocs()
				b.ResetTimer()
			}
			if err := conn.Write(buf.Base, SegmentBytes); err != nil {
				panic(err)
			}
		}
		b.StopTimer()
		_ = conn.Close()
	})
	tb.Eng.Run()
	if sent != warmup+b.N {
		b.Fatalf("stream stalled after %d of %d segments", sent, warmup+b.N)
	}
	tb.Close()
}
