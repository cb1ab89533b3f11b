// Package bench regenerates every table and figure of the paper's
// evaluation (Sections IV and V). Each experiment builds a fresh simulated
// testbed — two DECstation 5000/240s on an AN2 switch or an Ethernet
// segment — runs the workload the paper describes, and returns the rows
// the paper reports alongside the paper's own numbers for comparison.
//
// Nothing here replays constants from the result tables: the measured
// values emerge from the cost-model composition (see DESIGN.md §1).
package bench

import (
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/dpf"
	"ashs/internal/fault"
	"ashs/internal/flyweight"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/obs"
	"ashs/internal/proto/arp"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
)

// worldSpec is a cell's world as a value: everything build needs, and
// nothing a workload does once the world exists. A field is here only if
// the registered cells give it at least two values (TestWorldSpecFieldsInUse).
// Competitor processes, schedulers, profile changes, policy overrides and
// the ring limits of bindings a workload creates stay in the measurement:
// their process names and spawn order are in the trace.
type worldSpec struct {
	// eth selects the Ethernet segment; otherwise the AN2 switch.
	eth bool
	// fanIn selects one server, "srv", and clients hosts "c000"..., sized
	// by the four fields below; otherwise the paper's pair "h1", "h2",
	// default-sized. The server is added first so it owns the first switch
	// port and its address precedes every client's, including flyweight
	// clients attached to the switch later: all a megascale world
	// (clients = 0) has.
	fanIn             bool
	clients           int
	srvMem, srvRxBufs int
	cliMem, cliRxBufs int
	// arp starts an ARP daemon on every host of an Ethernet pair before any
	// workload process; the pair's stacks resolve through them.
	arp bool
	// fault, if set, hooks a fault plane into the wire and into the
	// interface and ASH system of every host it covers.
	fault *faultSpec
	// tripThreshold is every host's core.System.AbortTripThreshold.
	tripThreshold int
	// quota, if set, puts a tenant quota ledger on the server.
	quota *quotaSpec
}

// faultSpec is a fault plane: one schedule driven from one seed.
type faultSpec struct {
	seed  int64
	sched fault.Schedule
	// serverOnly covers the first host alone; otherwise every host.
	serverOnly bool
}

// quotaSpec is a tenant quota: budget cycles of eager handler execution per
// tenant per window.
type quotaSpec struct {
	windowUs float64
	budget   sim.Time
}

// The pairs: the AN2 testbed, and the Ethernet one without and with ARP.
var (
	an2Pair = worldSpec{}
	ethPair = worldSpec{eth: true}
	arpPair = worldSpec{eth: true, arp: true}
)

// Fan-in server sizing: memory for hundreds of connections' window state
// (scale's tcp-fast server peaks at a brk of 15.2 MiB;
// TestServerMemoryFitsItsLargestCell keeps it under 80 %), and
// receive-pool slack on top of what the workload keeps in flight.
const (
	fanInServerMem     = 24 << 20
	fanInServerRxSlack = 64
)

// host is one simulated machine: a kernel, one network interface, an ASH
// system and the IP address derived from the interface's switch port.
type host struct {
	k   *aegis.Kernel
	nic *aegis.NIC // the interface, whichever device it is
	// The same interface as the device it is, for binding circuits or
	// filters and reading demux costs: exactly one of the two is set.
	an2 *aegis.AN2If
	eth *aegis.EthernetIf
	// arp is the host's ARP daemon on an Ethernet pair whose spec asks for
	// one; fan-in worlds resolve statically through world.res instead.
	arp *arp.Service
	sys *core.System
	ip  ip.Addr
	// fleet is the flyweight fleet a megascale cell drives at this host,
	// nil elsewhere: the world's fate ledger counts what its ports took.
	fleet *flyweight.Fleet
}

// addr is the host's switch port, which doubles as its link address.
func (h *host) addr() int { return h.nic.Addr() }

// world is one simulated network and its hosts in creation order, which is
// also switch-port order: port numbers (and the addresses derived from
// them) are part of the simulated result.
type world struct {
	eng   *sim.Engine
	prof  *mach.Profile
	sw    *netdev.Switch
	hosts []*host
	// res resolves hosts and flyweight endpoints alike by arithmetic: a
	// 512-host world cannot afford ARP daemons, nor a 65 536-endpoint one
	// a table. The two-host Ethernet testbed resolves through ARP instead.
	res portResolver
	// tb is a pair's Testbed view; nil on a fan-in world.
	tb *Testbed
	// fault is the world's fault plane, nil without one.
	fault *fault.Plane
	// cfg is the config the world was built with; close adds the engine's
	// counts to it.
	cfg *Config
	// window is the [start, end) cycle window a latency driver measured,
	// for the breakdown to attribute to phases.
	window [2]sim.Time
}

// build makes the world s describes. Nothing else in the package makes a
// switch, a host, an ARP daemon, a fault plane or a quota ledger, and build
// keeps one order, because each step shows in a result or the trace: the
// switch; the hosts, in switch-port order; for a pair, the Testbed view and
// cfg's Obs hook; the ARP daemons; the fault plane (the wire, then each
// covered host's device and system); the trip threshold; the quota.
func build(cfg *Config, s worldSpec) *world {
	netCfg := netdev.AN2Config()
	if s.eth {
		netCfg = netdev.EthernetConfig()
	}
	eng, prof := sim.NewEngine(), mach.DS5000_240()
	w := &world{eng: eng, prof: prof, sw: netdev.NewSwitch(eng, prof, netCfg), cfg: cfg}
	if s.eth {
		w.res.sw = w.sw
	}
	// add boots a host with mem bytes of physical memory on the next switch
	// port. An Ethernet interface gets a receive pool of rxBufs; an AN2 one
	// takes its buffers per virtual circuit.
	add := func(name string, mem, rxBufs int) {
		h := &host{k: aegis.NewKernelMem(name, eng, prof, mem)}
		if s.eth {
			h.eth = aegis.NewEthernetPool(h.k, w.sw, rxBufs)
			h.nic = &h.eth.NIC
		} else {
			h.an2 = aegis.NewAN2(h.k, w.sw)
			h.nic = &h.an2.NIC
		}
		h.sys, h.ip = core.NewSystem(h.k), ip.HostAddr(h.addr())
		w.hosts = append(w.hosts, h)
	}
	if s.fanIn {
		add("srv", s.srvMem, s.srvRxBufs)
		for i := 0; i < s.clients; i++ {
			add(fmt.Sprintf("c%03d", i), s.cliMem, s.cliRxBufs)
		}
	} else {
		add("h1", aegis.HostMemSize, aegis.EthRxBuffers)
		add("h2", aegis.HostMemSize, aegis.EthRxBuffers)
		h1, h2 := w.hosts[0], w.hosts[1]
		w.tb = &Testbed{world: w, Eng: eng, Prof: prof, Sw: w.sw, K1: h1.k, K2: h2.k,
			A1: h1.an2, A2: h2.an2, E1: h1.eth, E2: h2.eth,
			Sys1: h1.sys, Sys2: h2.sys, IP1: h1.ip, IP2: h2.ip}
		cfg.observe(w.tb)
	}
	if s.arp {
		for _, h := range w.hosts {
			svc, err := arp.Start(h.k, h.eth, h.ip)
			if err != nil {
				panic(err)
			}
			h.arp = svc
		}
	}
	if f := s.fault; f != nil {
		w.fault = fault.New(f.seed, f.sched)
		covered := w.hosts
		if f.serverOnly {
			covered = covered[:1]
		}
		w.attachFault(w.fault, covered)
	}
	for _, h := range w.hosts {
		h.sys.AbortTripThreshold = s.tripThreshold
	}
	if q := s.quota; q != nil {
		w.srv().sys.Quota = sandbox.NewQuotaLedger(prof.Cycles(q.windowUs), q.budget)
	}
	return w
}

// attachFault hooks pl into the wire, then into the device and system of
// each of hosts in order: the injection points of a world whose spec has a
// fault plane (build), or of a whole pair (Testbed.AttachFault).
func (w *world) attachFault(pl *fault.Plane, hosts []*host) {
	pl.AttachWire(w.sw)
	for _, h := range hosts {
		pl.AttachDevice(h.nic)
		pl.AttachSystem(h.sys)
	}
}

// inWorld builds the world s describes, measures it with fn and closes it:
// the one place a cell's world opens and closes.
func inWorld[T any](cfg *Config, s worldSpec, fn func(w *world) T) T {
	w := build(cfg, s)
	defer w.close()
	return fn(w)
}

// portResolver is a world's static resolver: on an Ethernet world (sw
// set) an address resolves to the port ip.HostAddr made it from, if the
// switch has that port; an AN2 world's resolves nothing.
type portResolver struct{ sw *netdev.Switch }

// Resolve implements ip.Resolver.
func (r portResolver) Resolve(_ *aegis.Process, dst ip.Addr) (link.Addr, error) {
	if port, ok := ip.HostPort(dst); ok && r.sw != nil && port < r.sw.NumPorts() {
		return link.Addr{Port: port}, nil
	}
	return link.Addr{}, fmt.Errorf("ip: no route to %s", dst)
}

// srv is a fan-in world's server; cli its clients in creation order.
func (w *world) srv() *host   { return w.hosts[0] }
func (w *world) cli() []*host { return w.hosts[1:] }

// checkPool is the end-of-cell leak gate: once the engine has drained, no
// event can ever Release a buffer again, so any lease still outstanding is
// leaked — some path leased a frame and lost it. While events remain
// pending (sliced runs stopped mid-workload) outstanding leases are
// legitimately owned by in-flight frames and queued commits, and the check
// is vacuous.
func (w *world) checkPool() {
	if pool := w.sw.Pool; w.eng.Pending() == 0 && pool.InUse() != 0 {
		panic(fmt.Sprintf("bench: %d pool buffers leaked at end of experiment cell (%d leased, %d released)",
			pool.InUse(), pool.Leases, pool.Releases))
	}
}

// close ends the world: its processes are torn down and its hosts' memory
// goes back to the arena pool. The engine goes first, so deferred calls
// that unwind with the processes still see live memory. inWorld (and the
// facade's Testbed.Close) calls it once the results are read; nothing may
// touch the world afterwards. It is the end-of-world gate: a process still
// live or a host still holding memory is a leak, and panics. Last, the
// engine's schedule counts go to the config the world was built with.
func (w *world) close() {
	w.checkFates()
	w.eng.Close()
	for _, h := range w.hosts {
		h.k.Close()
	}
	st := w.eng.Stats()
	for _, h := range w.hosts {
		if st.LiveProcs != 0 || h.k.Mem.Data != nil || h.k.MemSize() != 0 {
			panic(fmt.Sprintf("bench: %s world %s..%s after close: %d processes live, host %s holds %d bytes",
				w.sw.Cfg.Name, w.hosts[0].k.Name, w.hosts[len(w.hosts)-1].k.Name, st.LiveProcs, h.k.Name, h.k.MemSize()))
		}
	}
	c := closedEngine(st)
	for _, h := range w.hosts {
		if h.eth != nil {
			c.DPF = c.DPF.Add(h.eth.TrieWork())
		}
	}
	w.cfg.count(c)
}

// checkFates is the world's message-fate ledger, taken before the engine
// drops what it still has scheduled. A frame offered to the switch is
// refused there (Refused), dropped by the wire's injector (Dropped, which
// also counts a frame the injector holds back to redeliver later), still
// in flight, or delivered (Delivered, less the Redelivered copies an
// injector put back). In-flight frames are each a leased buffer and are
// none once the engine has drained. A delivered frame reaches no receiver
// (Unreceived) or is handed to the receivers of the ports it reaches
// (Received). Each frame a receiver took ends in exactly one fate: one of
// its host interface's RxStats fates (CRC, no match, injected ring or pool
// drop, shed, no buffer, too big, delivered, which covers re-vectoring
// after an abort) or a reception by a flyweight fleet. A path that loses a
// frame without naming its fate, or names two, fails here, in every cell.
func (w *world) checkFates() {
	sw := w.sw
	inFlight := int64(sw.Sent) - int64(sw.Dropped) - int64(sw.Delivered-sw.Redelivered)
	drained := w.eng.Pending() == 0
	fates := uint64(0)
	for _, h := range w.hosts {
		fates += h.nic.Rx.Fates()
		if h.fleet != nil {
			fates += h.fleet.Received
		}
	}
	if inFlight < 0 || inFlight > int64(sw.Pool.InUse()) || drained && inFlight != 0 || fates != sw.Received() {
		panic(fmt.Sprintf("bench: %s world %s..%s: fates do not sum: %d offered (%d refused, %d sent), %d dropped, %d delivered, %d redelivered, %d in flight (%d buffers leased, drained %t); %d received, %d unreceived; the receivers gave %d fates",
			sw.Cfg.Name, w.hosts[0].k.Name, w.hosts[len(w.hosts)-1].k.Name, sw.Sent+sw.Refused, sw.Refused, sw.Sent,
			sw.Dropped, sw.Delivered, sw.Redelivered, inFlight, sw.Pool.InUse(), drained,
			sw.Received(), sw.Unreceived, fates))
	}
}

// run drains the engine and applies the leak gate. Cells that run to
// quiescence end through here rather than calling eng.Run directly.
func (w *world) run() {
	w.eng.Run()
	w.checkPool()
}

// runUntil advances the simulation sliceUs at a time until done reports
// true, for cells whose worlds never drain (competitor processes and
// servers loop forever). A cell still running when maxSimUs of virtual
// time has passed, or whose engine drains first, has no result to report,
// so it panics rather than returning a partial one. The slice length sets
// how far past completion the world runs on, which trailing counters and
// traces can see; callers keep theirs fixed.
func (w *world) runUntil(done func() bool, maxSimUs, sliceUs float64) {
	limit, slice := w.prof.Cycles(maxSimUs), w.prof.Cycles(sliceUs)
	for !done() && w.eng.Now() < limit && (w.eng.Pending() > 0 || w.eng.Now() == 0) {
		w.eng.RunFor(slice)
	}
	if !done() {
		panic(fmt.Sprintf("bench: cell did not complete within its %.0f us simulated-time bound (stopped at %.0f us, %d events pending)",
			maxSimUs, w.prof.Us(w.eng.Now()), w.eng.Pending()))
	}
	w.checkPool()
}

// rxCost is h's kernel receive cost per accepted frame, in cycles:
// interrupt entries actually taken plus driver service plus DPF
// classification, and the classification share alone. Both are zero
// before the first frame.
func (w *world) rxCost(h *host) (cycPerMsg, demuxPerMsg float64) {
	rx := h.eth.RxFrames
	if rx == 0 {
		return 0, 0
	}
	kernel := sim.Time(h.k.Interrupts)*sim.Time(w.prof.InterruptCycles) +
		sim.Time(rx)*sim.Time(w.prof.DeviceRxService) +
		h.eth.DemuxCycles
	return float64(kernel) / float64(rx), float64(h.eth.DemuxCycles) / float64(rx)
}

// The IPv4 endpoint-filter family. Each step pins one more field of the
// flow, and the trie's deepest-terminal rule routes a frame to the most
// specific filter installed, so a connection filter takes established
// traffic away from the listen filter that accepted it.

// listenFilter is the 4-atom wildcard endpoint: every (proto, port)
// datagram addressed to local.
func listenFilter(local ip.Addr, proto byte, port uint16) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, proto).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

// peerFilter narrows listenFilter by source host (5 atoms).
func peerFilter(local ip.Addr, proto byte, port uint16, remote ip.Addr) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+12, ipU32(remote)).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, proto).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

// connFilter pins one flow's full four-tuple (6 atoms).
func connFilter(local ip.Addr, proto byte, port uint16, remote ip.Addr, rport uint16) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+12, ipU32(remote)).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, proto).
		Eq16(ether.HeaderLen+ip.HeaderLen+0, rport).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

func ipU32(a ip.Addr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// ethStack binds filter f on h for p and builds an IP stack over it that
// writes Ethernet link headers and resolves next hops through res.
func ethStack(p *aegis.Process, h *host, f *dpf.Filter, res ip.Resolver) *ip.Stack {
	ep, err := link.BindEthernet(h.eth, p, f)
	if err != nil {
		panic(err)
	}
	st := ip.NewStack(ep, h.ip, res)
	st.LinkHdrLen = ether.HeaderLen
	myMAC := ether.PortMAC(h.addr())
	st.PrependLink = func(dst link.Addr, b []byte) []byte {
		eh := ether.Header{Dst: ether.PortMAC(dst.Port), Src: myMAC, Type: ether.TypeIPv4}
		return eh.Marshal(b)
	}
	return st
}

// Testbed is a pair of simulated hosts on one network.
type Testbed struct {
	*world
	Eng        *sim.Engine
	Prof       *mach.Profile
	Sw         *netdev.Switch
	K1, K2     *aegis.Kernel
	A1, A2     *aegis.AN2If      // AN2 testbeds
	E1, E2     *aegis.EthernetIf // Ethernet testbeds
	Sys1, Sys2 *core.System
	IP1, IP2   ip.Addr
	Obs        *obs.Plane // nil unless AttachObs was called
}

// NewAN2Testbed builds the standard two-host AN2 world.
func NewAN2Testbed(cfg *Config) *Testbed { return build(cfg, an2Pair).tb }

// NewEthernetTestbed builds the two-host Ethernet world (no ARP daemons).
func NewEthernetTestbed(cfg *Config) *Testbed { return build(cfg, ethPair).tb }

// host resolves the host argument of StackAN2 and EthStack, here and nowhere
// else: n is 1 or 2, and the testbed is on the network the call is for. Both
// arrive from outside through the public facade, so a bad one is reported in
// its own terms rather than as a nil interface several frames down.
func (tb *Testbed) host(n int, eth bool) *host {
	if onEth := tb.E1 != nil; (n != 1 && n != 2) || eth != onEth {
		network := map[bool]string{false: "AN2", true: "Ethernet"}
		panic(fmt.Sprintf("bench: %s stack asked of host %d: this testbed has hosts 1 and 2, on the %s",
			network[eth], n, network[onEth]))
	}
	return tb.hosts[n-1]
}

// AttachObs wires an observability plane into the testbed's switch and
// both kernels. Tracing charges no simulated cycles, so attaching a plane
// never changes measured results.
func (tb *Testbed) AttachObs(pl *obs.Plane) {
	tb.Obs = pl
	tb.Sw.Obs = pl
	tb.K1.Obs = pl
	tb.K2.Obs = pl
}

// AttachFault hooks a fault plane into every injection point of the
// testbed: the wire, both network interfaces, and both ASH systems — the
// points build hooks for a pair whose spec has a fault plane.
func (tb *Testbed) AttachFault(pl *fault.Plane) { tb.attachFault(pl, tb.hosts) }

// Close is close for the public facade, whose worlds are testbeds.
func (tb *Testbed) Close() { tb.close() }

// stack builds p's IP stack for one transport endpoint on host 1 or 2. It
// is the one place the harness asks which network the testbed is on: the
// AN2 binds the circuit the suite uses for that protocol, the Ethernet a
// listen filter on (proto, port) resolving through the host's ARP daemon.
func (tb *Testbed) stack(p *aegis.Process, host int, proto byte, port uint16) *ip.Stack {
	if tb.E1 != nil {
		return tb.EthStack(p, host, proto, port, tb.hosts[host-1].arp)
	}
	vc := 5 // UDP
	if proto == ip.ProtoTCP {
		vc = 7
	}
	return tb.StackAN2(p, host, vc)
}

// StackAN2 builds an IP stack over a fresh VC binding for p.
func (tb *Testbed) StackAN2(p *aegis.Process, host, vc int) *ip.Stack {
	h := tb.host(host, false)
	ep, err := link.BindAN2(h.an2, p, vc, 16, h.an2.MaxFrame())
	if err != nil {
		panic(err)
	}
	res := ip.StaticResolver{}
	for _, peer := range tb.hosts {
		res[peer.ip] = link.Addr{Port: peer.addr(), VC: vc}
	}
	return ip.NewStack(ep, h.ip, res)
}

// EthStack builds an IP stack over the Ethernet for p, demuxing with a DPF
// filter on (ethertype, local IP, protocol, local port) and resolving
// through the host's ARP daemon, svc. Without one the stack could not
// resolve its first next hop, so a nil svc is refused here.
func (tb *Testbed) EthStack(p *aegis.Process, host int, proto byte, port uint16, svc *arp.Service) *ip.Stack {
	h := tb.host(host, true)
	if svc == nil {
		panic(fmt.Sprintf("bench: Ethernet stack asked of host %d with a nil ARP service: start one with StartARP", host))
	}
	return ethStack(p, h, listenFilter(h.ip, proto, port), svc)
}

// Us converts cycles to microseconds under the testbed profile.
func (tb *Testbed) Us(c sim.Time) float64 { return tb.Prof.Us(c) }
