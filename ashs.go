// Package ashs is a library reproduction of "ASHs: Application-Specific
// Handlers for High-Performance Messaging" (Wallach, Engler & Kaashoek,
// SIGCOMM'96 / IEEE ToN 1997).
//
// It implements, in simulation, the complete system the paper describes:
// an exokernel (Aegis) with two network devices (a 155-Mb/s AN2 ATM switch
// and a 10-Mb/s Ethernet exported through the DPF packet-filter engine),
// the ASH system itself (safe downloaded message handlers with dynamic
// message vectoring, message initiation, and control initiation), dynamic
// integrated layer processing built on VCODE-style pipes, a Wahbe-style
// sandboxer/verifier, and the user-level protocol suite (ARP, IP, UDP,
// TCP with a downloadable fast path, HTTP) the paper evaluates.
//
// The package root is a facade: it wires a ready-to-use two-host testbed
// and re-exports the building blocks. The typical flow mirrors the paper's
// (Section II): write a handler against the vcode builder, download it
// (verification + sandboxing), associate it with a demultiplexing point,
// and let it run on message arrival:
//
//	w := ashs.NewWorld()
//	app := w.Host2.Spawn("app", func(p *ashs.Process) { ... })
//	ash, err := w.ASH2.Download(app, prog, ashs.ASHOptions{})
//	binding, _ := w.AN2Host2.BindVC(app, 7, 8, 4096)
//	ash.Attach(binding)
//	w.Run()
//
// Everything runs on a deterministic discrete-event simulation of a pair
// of 40-MHz DECstation 5000/240s; time costs are calibrated against the
// paper's base measurements (see DESIGN.md).
package ashs

import (
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/bench"
	"ashs/internal/core"
	"ashs/internal/dpf"
	"ashs/internal/fault"
	"ashs/internal/mach"
	"ashs/internal/obs"
	"ashs/internal/pipe"
	"ashs/internal/proto/arp"
	"ashs/internal/proto/http"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
	"ashs/internal/vcode"
	"ashs/internal/vcode/analysis"
)

// Re-exported core types. The simulated OS:
type (
	// Engine is the discrete-event simulation engine driving a world.
	Engine = sim.Engine
	// Time is virtual time in CPU cycles of the simulated machine.
	Time = sim.Time
	// Kernel is one simulated host (an Aegis exokernel instance).
	Kernel = aegis.Kernel
	// Process is a simulated application process.
	Process = aegis.Process
	// Segment is a memory allocation in a process's address space.
	Segment = aegis.Segment
	// Ring is a kernel/user shared notification ring; a binding makes its
	// own on first use (Binding.Ring).
	Ring = aegis.Ring
	// Binding is a process's demultiplexing point: an AN2 virtual circuit
	// or a DPF filter on the Ethernet.
	Binding = aegis.Binding
	// MsgCtx is the execution context of a message handler.
	MsgCtx = aegis.MsgCtx
	// Disposition is a handler's verdict on a message.
	Disposition = aegis.Disposition
	// Upcall is a fast asynchronous upcall handler.
	Upcall = aegis.Upcall
	// Profile is the machine cost model.
	Profile = mach.Profile
)

// The ASH system:
type (
	// ASHSystem downloads, verifies, sandboxes and runs handlers.
	ASHSystem = core.System
	// ASH is an installed handler (vcode object code).
	ASH = core.ASH
	// FuncASH is a Go-native handler with modeled costs.
	FuncASH = core.FuncASH
	// ASHOptions configures a download.
	ASHOptions = core.Options
	// HandlerCtx is the environment of a Go-native handler.
	HandlerCtx = core.Ctx
)

// Fault injection and abort fallback:
type (
	// AbortMode selects how an injected involuntary abort fires.
	AbortMode = core.AbortMode
	// FaultPlane drives seeded deterministic fault schedules against a
	// testbed's wire, devices, and handler invocations.
	FaultPlane = fault.Plane
	// FaultSchedule is one named set of per-layer fault probabilities.
	FaultSchedule = fault.Schedule
	// FaultCounters tallies every injected fault a plane performed.
	FaultCounters = fault.Counters
)

// Involuntary-abort modes for ASHSystem.InjectAbort.
const (
	AbortNone   = core.AbortNone
	AbortBudget = core.AbortBudget
	AbortTimer  = core.AbortTimer
)

// NewFaultPlane builds a deterministic fault plane from a seed and a
// schedule (see CannedSchedules).
func NewFaultPlane(seed int64, sched FaultSchedule) *FaultPlane {
	return fault.New(seed, sched)
}

// Observability:
type (
	// ObsPlane is the tracing plane of internal/obs, with its named
	// counters. A nil plane is valid and disabled at zero cost.
	ObsPlane = obs.Plane
	// MetricsRegistry holds an ObsPlane's named counters.
	MetricsRegistry = obs.Registry
)

// NewObsPlane builds an enabled observability plane for the standard
// 40-MHz DECstation profile.
func NewObsPlane() *ObsPlane { return obs.New(float64(mach.DS5000_240().MHz)) }

// WriteTrace renders planes as one Chrome trace_event JSON document
// (open in Perfetto or chrome://tracing). Byte-identical across runs of
// the same deterministic workload.
func WriteTrace(planes ...*ObsPlane) []byte { return obs.WriteTrace(planes...) }

// CannedSchedules returns the standard chaos-soak fault schedules.
func CannedSchedules() []FaultSchedule { return fault.Canned() }

// Handler code and pipes:
type (
	// CodeBuilder assembles handler object code (VCODE-style).
	CodeBuilder = vcode.Builder
	// Program is assembled handler code.
	Program = vcode.Program
	// Reg is a machine register.
	Reg = vcode.Reg
	// PipeList collects pipes for dynamic ILP composition.
	PipeList = pipe.List
	// Pipe is one streaming data manipulation.
	Pipe = pipe.Pipe
	// TransferEngine is a compiled integrated data-transfer loop.
	TransferEngine = pipe.Engine
	// Filter is a DPF packet filter.
	Filter = dpf.Filter
)

// Handler dispositions.
const (
	Consumed = aegis.DispConsumed
	ToUser   = aegis.DispToUser
)

// Handler calling convention registers (see internal/vcode): a handler is
// entered with the message address in RArg0, its length in RArg1, the
// virtual circuit in RArg2, and the source address in RArg3; it returns 0
// in RRet to consume the message, nonzero to pass it to the user level.
const (
	RRet  = vcode.RRet
	RArg0 = vcode.RArg0
	RArg1 = vcode.RArg1
	RArg2 = vcode.RArg2
	RArg3 = vcode.RArg3
)

// NewCodeBuilder starts a handler program named name.
func NewCodeBuilder(name string) *CodeBuilder { return vcode.NewBuilder(name) }

// LintFinding is one diagnostic from the handler lint pass.
type LintFinding = analysis.Finding

// LintASH runs the static-analysis lint pass over handler code before
// download: dead stores and loads (wasted work on the per-instruction-
// costed fast path), persistent registers never read, and loops without
// a statically provable trip bound. Findings are advisory — the
// verifier, not the linter, decides downloadability.
func LintASH(p *Program) []LintFinding { return analysis.Lint(p) }

// HandlerCost is a handler's proven worst case for one run: instructions
// executed, and bytes its ash_copy and ash_dilp calls move.
type HandlerCost = analysis.Cost

// BoundASH returns the most one run of p can cost when no message exceeds
// maxMsg bytes: the paper bounds an ASH's running time (§III-B3), and this
// states that bound before download. A handler with an indirect jump or a
// loop whose trip count cannot be proven has no bound; the error names
// where it is.
func BoundASH(p *Program, maxMsg int) (HandlerCost, error) { return analysis.Bound(p, maxMsg) }

// NewPipeList initializes a pipe list with the given capacity hint.
func NewPipeList(capacity int) *PipeList { return pipe.NewList(capacity) }

// CksumPipe declares the paper's Fig. 2 Internet-checksum pipe; it returns
// the pipe and its accumulator register.
func CksumPipe(l *PipeList) (*Pipe, Reg, error) { return pipe.Cksum(l) }

// ByteswapPipe declares the byteswap pipe of Fig. 1.
func ByteswapPipe(l *PipeList) (*Pipe, error) { return pipe.Byteswap(l) }

// CompilePipes fuses a pipe list into an integrated transfer engine
// (dynamic ILP). withOutput selects a copying engine.
func CompilePipes(l *PipeList, withOutput bool) (*TransferEngine, error) {
	return pipe.Compile(l, pipe.Options{Output: withOutput})
}

// NewFilter builds an empty DPF packet filter.
func NewFilter() *Filter { return dpf.NewFilter() }

// World is a ready-made two-host testbed: two DECstations connected by a
// network, each with an ASH system.
type World struct {
	tb *bench.Testbed

	Eng          *Engine
	Prof         *Profile
	Host1, Host2 *Kernel
	// AN2Host1/2 are set on AN2 worlds; EthHost1/2 on Ethernet worlds.
	AN2Host1, AN2Host2 *aegis.AN2If
	EthHost1, EthHost2 *aegis.EthernetIf
	ASH1, ASH2         *ASHSystem
	IP1, IP2           ip.Addr
	// Obs is the observability plane attached by AttachObs; nil when
	// unobserved.
	Obs *ObsPlane
	// Fault is the fault plane attached by AttachFaultPlane; nil when no
	// faults are injected.
	Fault *FaultPlane
}

// NewWorld builds a two-host testbed on the AN2 switch.
func NewWorld() *World { return newWorld(bench.NewAN2Testbed(nil)) }

// NewEthernetWorld builds a two-host testbed on an Ethernet segment.
func NewEthernetWorld() *World { return newWorld(bench.NewEthernetTestbed(nil)) }

func newWorld(tb *bench.Testbed) *World {
	return &World{tb: tb, Eng: tb.Eng, Prof: tb.Prof,
		Host1: tb.K1, Host2: tb.K2,
		AN2Host1: tb.A1, AN2Host2: tb.A2,
		EthHost1: tb.E1, EthHost2: tb.E2,
		ASH1: tb.Sys1, ASH2: tb.Sys2,
		IP1: tb.IP1, IP2: tb.IP2}
}

// AttachObs wires an observability plane into the world's switch and
// both kernels. Tracing charges no simulated cycles, so attaching a
// plane never changes simulated results.
func (w *World) AttachObs(pl *ObsPlane) {
	w.Obs = pl
	w.tb.AttachObs(pl)
}

// AttachFaultPlane hooks a fault plane into every injection point of the
// world: the wire, both network interfaces, and both ASH systems.
func (w *World) AttachFaultPlane(p *FaultPlane) {
	w.Fault = p
	w.tb.AttachFault(p)
}

// Run drives the simulation until no work remains.
func (w *World) Run() { w.Eng.Run() }

// Close ends the world once its results have been read: processes still
// blocked (servers, daemons, spinners) are unwound so their goroutines
// exit, and both hosts' simulated memory goes back to a pool the next
// NewWorld draws from. Call it outside Run, typically deferred right after
// NewWorld; the world and any slice of its memory must not be used
// afterwards. Never calling it is safe and merely slower for programs that
// build many worlds: the world is then ordinary garbage, except for the
// goroutines of processes that never finish.
func (w *World) Close() { w.tb.Close() }

// RunFor advances the simulation by us microseconds of virtual time.
func (w *World) RunFor(us float64) { w.Eng.RunFor(w.Prof.Cycles(us)) }

// Us converts virtual cycles to microseconds.
func (w *World) Us(t Time) float64 { return w.Prof.Us(t) }

// IPStackAN2 builds a user-level IP stack over a fresh AN2 virtual
// circuit for process p on host 1 or 2 (the paper's user-level protocol
// library arrangement). It panics, naming the host number and the world's
// network, on any other host or on an Ethernet world.
func (w *World) IPStackAN2(p *Process, host, vc int) *ip.Stack {
	return w.tb.StackAN2(p, host, vc)
}

// StartARP launches an ARP daemon on host 1 or 2 of an Ethernet world and
// returns it (it implements the stack's resolver). Like the stack
// constructors, it panics on any other host number or on an AN2 world.
func (w *World) StartARP(host int) (*arp.Service, error) {
	if w.EthHost1 == nil {
		panic(fmt.Sprintf("ashs: StartARP(%d) on an AN2 world: build it with NewEthernetWorld()", host))
	}
	switch host {
	case 1:
		return arp.Start(w.Host1, w.EthHost1, w.IP1)
	case 2:
		return arp.Start(w.Host2, w.EthHost2, w.IP2)
	}
	panic(fmt.Sprintf("ashs: StartARP(%d): an Ethernet world has hosts 1 and 2", host))
}

// IPStackEthernet builds a user-level IP stack over the Ethernet for a
// given transport protocol and local port, demultiplexed by a DPF filter
// and resolving through svc, the host's ARP daemon (StartARP). It panics,
// naming the host number and the world's network, on a host other than 1
// or 2 or on an AN2 world, and, naming the host, on a nil svc.
func (w *World) IPStackEthernet(p *Process, host int, proto byte, port uint16, svc *arp.Service) *ip.Stack {
	return w.tb.EthStack(p, host, proto, port, svc)
}

// Protocol facade re-exports.
type (
	// IPAddr is an IPv4 address.
	IPAddr = ip.Addr
	// IPStack is the user-level IPv4 library.
	IPStack = ip.Stack
	// UDPSocket is a bound UDP endpoint.
	UDPSocket = udp.Socket
	// UDPOptions selects the UDP receive discipline.
	UDPOptions = udp.Options
	// TCPConn is a TCP connection endpoint.
	TCPConn = tcp.Conn
	// TCPConfig parameterizes a connection (including handler placement).
	TCPConfig = tcp.Config
	// TCPMode selects where the TCP fast path runs.
	TCPMode = tcp.Mode
	// HTTPServer is the minimal HTTP/1.0 server.
	HTTPServer = http.Server
	// HTTPResponse is a parsed HTTP response.
	HTTPResponse = http.Response
	// LinkEndpoint is a raw network attachment: a process's kernel
	// binding on one AN2 circuit or Ethernet filter.
	LinkEndpoint = link.Link
	// LinkAddr is a link-level address.
	LinkAddr = link.Addr
)

// TCP fast-path placements (Table VI's columns).
const (
	TCPUser      = tcp.ModeUser
	TCPASH       = tcp.ModeASH
	TCPASHUnsafe = tcp.ModeASHUnsafe
	TCPUpcall    = tcp.ModeUpcall
)

// NewUDPSocket binds a UDP socket on stack st.
func NewUDPSocket(st *IPStack, port uint16, opts UDPOptions) *UDPSocket {
	return udp.NewSocket(st, port, opts)
}

// DefaultTCPConfig returns the paper's AN2 TCP parameters (MSS 3072,
// window 8 KB, checksums on).
func DefaultTCPConfig() TCPConfig { return tcp.DefaultConfig() }

// TCPConnect performs an active open.
func TCPConnect(st *IPStack, cfg TCPConfig, localPort uint16, remote IPAddr, remotePort uint16) (*TCPConn, error) {
	return tcp.Connect(st, cfg, localPort, remote, remotePort)
}

// TCPAccept performs a passive open.
func TCPAccept(st *IPStack, cfg TCPConfig, localPort uint16) (*TCPConn, error) {
	return tcp.Accept(st, cfg, localPort)
}

// HTTPGet performs one GET over an established connection.
func HTTPGet(conn *TCPConn, path string) (*HTTPResponse, error) {
	return http.Get(conn, path)
}

// DECstation returns the calibrated machine profile used by all worlds.
func DECstation() *Profile { return mach.DS5000_240() }

// V4 builds an IPv4 address.
func V4(a, b, c, d byte) IPAddr { return ip.V4(a, b, c, d) }

// Experiment re-exports: the bench package regenerates every table and
// figure of the paper; see cmd/ashbench.
type (
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = bench.Table
)
