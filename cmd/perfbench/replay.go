package main

import (
	"flag"
	"testing"
	"time"

	"ashs/internal/aegis"
	"ashs/internal/bench"
	"ashs/internal/bench/hotpath"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/dpf"
	"ashs/internal/flyweight"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/pipe"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/relay"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
	wlgen "ashs/internal/workload"
)

// Replays drive one layer's public functions from outside, with inputs
// shaped like the workloads', and time them. They are not in-situ shares: a
// replay says what one operation of a layer costs on this host, and the
// prediction table in README.md says which workload's wall_s that cost
// should show up in.

// replayBenchtime bounds each testing.Benchmark replay. The testing flags
// live on flag.CommandLine; perfbench parses its own FlagSet, so they never
// reach the user.
const replayBenchtime = "60ms"

// initReplays must run before the first replay. At smoke size every
// benchmark body runs once.
func initReplays(smoke bool) {
	testing.Init()
	benchtime := replayBenchtime
	if smoke {
		benchtime, dpfBig = "1x", 8192
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		panic(err)
	}
}

// nsPerOp runs a benchmark body and reports its mean time per iteration.
func nsPerOp(fn func(b *testing.B)) float64 {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		panic("perfbench: replay benchmark failed to run")
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// sink keeps replay results reachable so the compiler cannot drop the work.
var sink any

// megaFilter is the megascale per-endpoint filter shape: two shared atoms,
// then one multi-way branch on the source address.
func megaFilter(src uint32) *dpf.Filter {
	return dpf.NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq32(26, src)
}

func megaPacket(src uint32) []byte {
	pkt := make([]byte, 64)
	pkt[12], pkt[13] = 0x08, 0x00
	pkt[23] = 17
	pkt[26], pkt[27], pkt[28], pkt[29] = byte(src>>24), byte(src>>16), byte(src>>8), byte(src)
	return pkt
}

// transmitReplay times lease -> Transmit -> deliver -> release through a
// switch with the given port count, the sender rotating over every other
// port.
func transmitReplay(ports int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		sw := netdev.NewSwitch(eng, mach.DS5000_240(), netdev.EthernetConfig())
		src := sw.NewPort()
		for i := 1; i < ports; i++ {
			sw.NewPort().SetReceiver(func(*netdev.PacketBuf) {})
		}
		data := make([]byte, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt := sw.LeaseData(data)
			pkt.Dst = 1 + i%(ports-1)
			if err := src.Transmit(pkt); err != nil {
				b.Fatal(err)
			}
			eng.Run()
		}
	}
}

// handlerWorld is a one-host world with a downloaded handler and a
// synthetic message for it, as the sandbox experiment builds one.
type handlerWorld struct {
	eng   *sim.Engine
	k     *aegis.Kernel
	sys   *core.System
	owner *aegis.Process
	ash   *core.ASH
	entry aegis.RingEntry
}

func mustHandlerWorld(opts core.Options) *handlerWorld {
	w := &handlerWorld{eng: sim.NewEngine()}
	w.k = aegis.NewKernel("replay", w.eng, mach.DS5000_240())
	w.sys = core.NewSystem(w.k)
	w.owner = w.k.Spawn("app", func(p *aegis.Process) {})
	seg := w.owner.AS.MustAlloc(8192, "shared")
	w.ash = w.sys.MustDownload(w.owner, crl.FixedRecordWriteHandler(seg.Base+64, seg.Base), opts)
	msg := w.owner.AS.MustAlloc(4096, "synthetic-msg")
	data := w.k.Bytes(msg.Base, crl.RecordBytes)
	for i := range data {
		data[i] = byte(i)
	}
	w.entry = aegis.RingEntry{Addr: msg.Base, Len: crl.RecordBytes}
	return w
}

// invoke runs the handler once on the synthetic message.
func (w *handlerWorld) invoke() {
	mc := aegis.SyntheticMsg(w.k, w.owner, w.entry)
	if d := w.ash.HandleMsg(mc); d != aegis.DispConsumed {
		panic("perfbench: replay handler did not consume its message")
	}
}

// inEngine runs the benchmark loop inside one engine event, the context a
// handler invocation needs.
func (w *handlerWorld) inEngine(b *testing.B, body func()) {
	w.eng.Schedule(0, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body()
		}
		b.StopTimer()
	})
	w.eng.Run()
}

// copyEnv is the Table III/IV micro-machine: 1 MiB of memory behind the
// cache model, with non-conflicting buffer addresses.
type copyEnv struct {
	m        *vcode.Machine
	src, dst uint32
}

const copyBytes = 4096

func newCopyEnv() *copyEnv {
	prof := mach.DS5000_240()
	m := vcode.NewMachine(prof, vcode.NewFlatMem(0, 1<<20))
	m.Cache = mach.NewCache(prof)
	return &copyEnv{m: m, src: 0x10000, dst: 0x38000}
}

type replay struct {
	metric string
	layer  string
	run    func() float64
}

// timeOnce measures one call of fn and divides by the operations it did.
func timeOnce(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// dpfBig is the mega-setup filter population (8192 at smoke size).
var dpfBig = 262144

// replays returns every source-R per-layer measurement, in table order. The
// 262144-filter DPF engine is built once by the insert replay and shared by
// the demux and remove replays that follow it.
func replays() []replay {
	var big *dpf.Engine
	var bigIDs []dpf.FilterID
	return []replay{
		{"sim.event_ns", "sim", func() float64 { return nsPerOp(hotpath.SimEventQueue) }},
		{"sim.timer_cancel_ns", "sim", func() float64 {
			return nsPerOp(func(b *testing.B) {
				eng := sim.NewEngine()
				noop := func(any) {}
				for i := 0; i < hotpath.QueueDepth; i++ {
					eng.ScheduleArgAt(sim.Time(1_000_000_000+i), noop, nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Cancel(eng.ScheduleArg(1_000_000, noop, nil))
				}
			})
		}},
		{"sim.proc_switch_ns", "sim", func() float64 {
			return nsPerOp(func(b *testing.B) {
				eng := sim.NewEngine()
				eng.Go("sleeper", func(p *sim.Proc) {
					for i := 0; i < b.N; i++ {
						p.Sleep(1)
					}
				})
				b.ResetTimer()
				eng.Run()
			})
		}},
		{"netdev.transmit_ns.2", "netdev", func() float64 { return nsPerOp(transmitReplay(2)) }},
		{"netdev.transmit_ns.513", "netdev", func() float64 { return nsPerOp(transmitReplay(513)) }},
		{"aegis.rx_path_ns", "aegis", func() float64 { return nsPerOp(hotpath.PacketPath) }},
		{"aegis.kernel_build_ns", "aegis", func() float64 {
			return nsPerOp(func(b *testing.B) {
				prof := mach.DS5000_240()
				for i := 0; i < b.N; i++ {
					eng := sim.NewEngine()
					sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
					sink = aegis.NewEthernet(aegis.NewKernel("h", eng, prof), sw)
				}
			})
		}},
		{"dpf.demux_ns.512", "dpf", func() float64 { return nsPerOp(hotpath.DPFTrieWalk) }},
		{"dpf.insert_ns.256k", "dpf", func() float64 {
			big = dpf.NewEngine()
			bigIDs = make([]dpf.FilterID, dpfBig)
			return timeOnce(dpfBig, func() {
				for i := range bigIDs {
					id, err := big.Insert(megaFilter(0x0a000001 + uint32(i)))
					if err != nil {
						panic(err)
					}
					bigIDs[i] = id
				}
			})
		}},
		{"dpf.demux_ns.256k", "dpf", func() float64 {
			pkts := make([][]byte, 1024)
			for i := range pkts {
				pkts[i] = megaPacket(0x0a000001 + uint32(i*(dpfBig/len(pkts))))
			}
			return nsPerOp(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, ok := big.Demux(pkts[i%len(pkts)]); !ok {
						b.Fatal("demux missed")
					}
				}
			})
		}},
		{"dpf.remove_ns", "dpf", func() float64 {
			const n = 2048 // Remove is linear in the population: ~0.1 ms each
			v := timeOnce(n, func() {
				for _, id := range bigIDs[:n] {
					if err := big.Remove(id); err != nil {
						panic(err)
					}
				}
			})
			big, bigIDs = nil, nil
			return v
		}},
		{"vcode.dispatch_ns_per_insn", "vcode", func() float64 {
			return nsPerOp(hotpath.VCODEDispatch) / float64(dispatchInsns())
		}},
		{"vcode.flatmem_new_ns_per_mb", "vcode", func() float64 {
			const mb = aegis.HostMemSize >> 20
			return nsPerOp(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink = vcode.NewFlatMem(aegis.HostMemBase, aegis.HostMemSize)
				}
			}) / mb
		}},
		{"sandbox.instrument_ns", "sandbox", func() float64 { return nsPerOp(hotpath.SandboxInstrument) }},
		{"sandbox.cache_hit_ns", "sandbox", func() float64 {
			prog, pol := hotpath.NewHandlerProgram(-1), sandbox.DefaultPolicy()
			return nsPerOp(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sandbox.Sandbox(prog, pol); err != nil {
						b.Fatal(err)
					}
				}
			})
		}},
		{"core.download_ns", "core", func() float64 {
			pool := churnPool(1, hotpath.HandlerVariants)
			return nsPerOp(func(b *testing.B) {
				k := aegis.NewKernel("replay", sim.NewEngine(), mach.DS5000_240())
				sys := core.NewSystem(k)
				owner := k.Spawn("app", func(p *aegis.Process) {})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Download(owner, pool[i%len(pool)], core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}},
		{"core.reoptimize_ns", "core", func() float64 {
			return nsPerOp(func(b *testing.B) {
				w := mustHandlerWorld(core.Options{OptimizeSFI: true, Profile: true})
				w.inEngine(b, func() {
					w.invoke() // gives the profile something to export
					// Identical profiles would hit the compile cache;
					// the replay times the recompile.
					sandbox.ResetCache()
					if _, err := w.sys.Reoptimize(w.ash); err != nil {
						b.Fatal(err)
					}
				})
			})
		}},
		{"core.invoke_ns", "core", func() float64 {
			return nsPerOp(func(b *testing.B) {
				w := mustHandlerWorld(core.Options{})
				w.inEngine(b, w.invoke)
			})
		}},
		{"mach.copy_ns_per_kb", "mach", func() float64 {
			copyEng := pipe.CompileCopy()
			return nsPerOp(func(b *testing.B) {
				env := newCopyEnv()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					env.m.Cache.Flush()
					if _, f := copyEng.Run(env.m, env.src, env.dst, copyBytes); f != nil {
						b.Fatal(f)
					}
					if _, _, err := pipe.LibCksumPass(env.m, env.dst, copyBytes); err != nil {
						b.Fatal(err)
					}
				}
			}) / (copyBytes / 1024)
		}},
		{"pipe.compile_ns", "pipe", func() float64 {
			return nsPerOp(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink = compileCksumCopy(b)
				}
			})
		}},
		{"pipe.run_ns_per_kb", "pipe", func() float64 {
			return nsPerOp(func(b *testing.B) {
				eng := compileCksumCopy(b)
				env := newCopyEnv()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, f := eng.Run(env.m, env.src, env.dst, copyBytes); f != nil {
						b.Fatal(f)
					}
				}
			}) / (copyBytes / 1024)
		}},
		{"tcp.segment_ns", "proto.tcp", func() float64 {
			// A 2-MB sandboxed-ASH stream through the fast path; the
			// figure includes building its two-host world.
			const bytes, mss = 2 << 20, 3072
			return timeOnce(bytes/mss, func() { sink = bench.Table6TputDebug(0, bytes, mss, 8192) })
		}},
		{"tcp.conntable_lookup_ns", "proto.tcp", func() float64 {
			tbl := tcp.NewConnTable(0)
			keys := make([]tcp.FourTuple, 512)
			for i := range keys {
				keys[i] = tcp.FourTuple{LocalIP: ip.HostAddr(0), LocalPort: 80,
					RemoteIP: ip.HostAddr(i + 1), RemotePort: 1234}
				if err := tbl.Bind(keys[i], new(tcp.Conn)); err != nil {
					panic(err)
				}
			}
			return nsPerOp(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := tbl.Lookup(keys[i%len(keys)]); !ok {
						b.Fatal("lookup missed")
					}
				}
			})
		}},
		{"flyweight.endpoint_build_ns", "flyweight", func() float64 {
			const n = 65536
			eng, prof := sim.NewEngine(), mach.DS5000_240()
			sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
			server := sw.NewPort()
			return timeOnce(n, func() {
				sink = flyweight.NewFleet(flyweight.Config{
					Eng: eng, Prof: prof, Sw: sw, Kind: flyweight.UDPEcho, N: n,
					ServerIP: ip.HostAddr(server.Addr()), ServerLink: server.Addr(),
					ServerPort: 7, ClientPort: 1234, Payload: 64,
					Retry: retry.Policy{BaseUs: 400_000, Budget: 4}, Seed: 1,
				})
			})
		}},
		{"relay.op_ns", "relay", func() float64 {
			const convs = 64
			data := make([]byte, 64)
			submit, poll := make([][]byte, convs), make([][]byte, convs)
			for c := range submit {
				submit[c] = relay.SubmitReq(uint32(c), uint16(c), data)
				poll[c] = relay.PollReq(uint32(c))
			}
			return nsPerOp(func(b *testing.B) {
				srv := relay.NewServer(relay.DefaultConfig())
				for i := 0; i < b.N; i++ {
					req := submit[i/2%convs]
					if i%2 == 1 {
						req = poll[i/2%convs]
					}
					sink, _, _ = srv.Handle(float64(i), "tenant", req)
				}
			})
		}},
		{"workload.gen_ns_per_event", "workload", func() float64 {
			const events = 32768
			return timeOnce(events, func() {
				sink = wlgen.Poisson(1, wlgen.Spec{Clients: 1024, Events: events, MeanGapUs: 150, Size: 64})
			})
		}},
	}
}

// dispatchInsns is the dynamic instruction count of one run of the
// hotpath.VCODEDispatch handler.
func dispatchInsns() int64 {
	m := vcode.NewMachine(mach.DS5000_240(), vcode.NewFlatMem(0x1000, hotpath.HandlerBytes))
	if f := m.Run(hotpath.NewHandlerProgram(0)); f != nil {
		panic(f)
	}
	return m.Insns
}

// compileCksumCopy compiles the checksum-and-copy DILP engine of Table IV.
func compileCksumCopy(b *testing.B) *pipe.Engine {
	pl := pipe.NewList(1)
	if _, _, err := pipe.Cksum(pl); err != nil {
		b.Fatal(err)
	}
	eng, err := pipe.Compile(pl, pipe.Options{Output: true})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// runReplays runs every replay inside its own span and returns the values
// by metric name, plus the one count the replays own.
func runReplays(tr *tracer) map[string]float64 {
	out := map[string]float64{"vcode.insns_per_invocation": float64(dispatchInsns())}
	for _, r := range replays() {
		id := tr.begin(r.layer, "replay:"+r.metric)
		out[r.metric] = r.run()
		tr.end(id)
	}
	return out
}
