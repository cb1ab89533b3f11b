// Package bench regenerates every table and figure of the paper's
// evaluation (Sections IV and V). Each experiment builds a fresh simulated
// testbed — two DECstation 5000/240s on an AN2 switch or an Ethernet
// segment — runs the workload the paper describes, and returns the rows
// the paper reports alongside the paper's own numbers for comparison.
//
// Nothing here replays constants from the result tables: the measured
// values emerge from the cost-model composition (see DESIGN.md §1, §4).
package bench

import (
	"fmt"
	"sync"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/dpf"
	"ashs/internal/fault"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/obs"
	"ashs/internal/proto/arp"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// Every experiment cell runs on a world built here and nowhere else: one
// engine, one switch, and the hosts attached to it. The paper's two-host
// testbeds, the scale/overload fan-in worlds (one server plus N small
// clients) and the megascale server-only world (its clients are flyweight
// endpoints) differ only in how many hosts they add and how big each is,
// so cross-workload numbers are comparable by construction.

// host is one simulated machine: a kernel, one network interface, an ASH
// system and the IP address derived from the interface's switch port.
type host struct {
	k   *aegis.Kernel
	nic *aegis.NIC // the interface, whichever device it is
	// The same interface as the device it is, for binding circuits or
	// filters and reading demux costs: exactly one of the two is set.
	an2 *aegis.AN2If
	eth *aegis.EthernetIf
	// arp is the host's ARP daemon on the two-host Ethernet testbed
	// (ethWorld starts it); fan-in worlds resolve statically through
	// world.res instead.
	arp *arp.Service
	sys *core.System
	ip  ip.Addr
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
	// res maps every Ethernet host's IP to its link address: static
	// resolution, since a 512-host world cannot afford ARP daemons. The
	// two-host Ethernet testbed resolves through ARP instead.
	res ip.StaticResolver
}

func newWorld(an2 bool) *world {
	cfg := netdev.EthernetConfig()
	if an2 {
		cfg = netdev.AN2Config()
	}
	eng, prof := sim.NewEngine(), mach.DS5000_240()
	return &world{eng: eng, prof: prof, sw: netdev.NewSwitch(eng, prof, cfg),
		res: ip.StaticResolver{}}
}

// addHost boots an Ethernet host with mem bytes of physical memory and a
// receive pool of rxBufs on the world's next switch port.
func (w *world) addHost(name string, mem, rxBufs int) *host {
	k := aegis.NewKernelMem(name, w.eng, w.prof, mem)
	eth := aegis.NewEthernetPool(k, w.sw, rxBufs)
	h := w.boot(k, &eth.NIC)
	h.eth = eth
	w.res[h.ip] = link.Addr{Port: h.addr()}
	return h
}

// addAN2Host boots a default-sized host on an AN2 world's next switch
// port. AN2 interfaces take their buffers per virtual circuit.
func (w *world) addAN2Host(name string) *host {
	k := aegis.NewKernelMem(name, w.eng, w.prof, aegis.HostMemSize)
	a := aegis.NewAN2(k, w.sw)
	h := w.boot(k, &a.NIC)
	h.an2 = a
	return h
}

// boot gives a kernel with its interface attached an ASH system and the IP
// address its switch port implies, and adds it to the world.
func (w *world) boot(k *aegis.Kernel, nic *aegis.NIC) *host {
	h := &host{k: k, nic: nic, sys: core.NewSystem(k), ip: ip.HostAddr(nic.Addr())}
	w.hosts = append(w.hosts, h)
	return h
}

// Fan-in server sizing: memory for hundreds of connections' window state,
// and receive-pool slack on top of what the workload keeps in flight.
const (
	fanInServerMem     = 48 << 20
	fanInServerRxSlack = 64
)

// newFanIn builds an Ethernet world of one server ("srv") and n clients
// ("c000"...). The server is added first so it owns the first switch port
// and its address precedes every client's — including flyweight clients
// attached to the switch later, which is all a megascale world (n = 0) has.
func newFanIn(srvMem, srvRxBufs, n, cliMem, cliRxBufs int) *world {
	w := newWorld(false)
	w.addHost("srv", srvMem, srvRxBufs)
	for i := 0; i < n; i++ {
		w.addHost(fmt.Sprintf("c%03d", i), cliMem, cliRxBufs)
	}
	return w
}

// srv is a fan-in world's server; cli its clients in creation order.
func (w *world) srv() *host   { return w.hosts[0] }
func (w *world) cli() []*host { return w.hosts[1:] }

// attachFault hooks a fault plane into the wire and into the interface and
// ASH system of each given host — every injection point those hosts have.
func (w *world) attachFault(pl *fault.Plane, hosts ...*host) {
	pl.AttachWire(w.sw)
	for _, h := range hosts {
		pl.AttachDevice(h.nic)
		pl.AttachSystem(h.sys)
	}
}

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
// that unwind with the processes still see live memory. The function that
// builds a world defers this; a world's results are read before it runs,
// and nothing may touch the world afterwards.
func (w *world) close() {
	w.eng.Close()
	for _, h := range w.hosts {
		h.k.Close()
	}
	st := w.eng.Stats()
	engines.Lock()
	engines.Closed++
	engines.Fired += st.Fired
	engines.Cancelled += st.Cancelled
	engines.Handoffs += st.Handoffs
	engines.Elided += st.Elided
	engines.Cascades += st.Cascades
	engines.Unlock()
}

// engines sums sim.Engine.Stats over every world closed in this process
// (cells run in parallel, hence the lock; sums do not depend on the order).
var engines struct {
	sync.Mutex
	EngineCounts
}

// EngineCounts is the schedule the process has run, summed over its closed
// worlds. Fired, Cancelled and Handoffs are functions of the simulations
// alone; Elided (wake-ups the sleeping process took itself, counted in Fired
// and Handoffs all the same) and Cascades are the event queue's own work on
// them.
type EngineCounts struct {
	Closed, Fired, Cancelled, Handoffs, Elided, Cascades uint64
}

// EngineStats reports the totals.
func EngineStats() EngineCounts {
	engines.Lock()
	defer engines.Unlock()
	return engines.EngineCounts
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

// newTestbed builds the paper's world: two default-sized hosts, "h1" then
// "h2". The config's Obs hook (nil-safe) runs before any workload touches
// the testbed. Fan-in worlds never reach it: the hook's users read both
// hosts of a pair.
func newTestbed(cfg *Config, an2 bool) *Testbed {
	w := newWorld(an2)
	tb := &Testbed{world: w, Eng: w.eng, Prof: w.prof, Sw: w.sw}
	for _, name := range []string{"h1", "h2"} {
		if an2 {
			w.addAN2Host(name)
		} else {
			w.addHost(name, aegis.HostMemSize, aegis.EthRxBuffers)
		}
	}
	h1, h2 := w.hosts[0], w.hosts[1]
	tb.A1, tb.A2, tb.E1, tb.E2 = h1.an2, h2.an2, h1.eth, h2.eth
	tb.K1, tb.K2, tb.Sys1, tb.Sys2, tb.IP1, tb.IP2 = h1.k, h2.k, h1.sys, h2.sys, h1.ip, h2.ip
	cfg.observe(tb)
	return tb
}

// NewAN2Testbed builds the standard two-host AN2 world.
func NewAN2Testbed(cfg *Config) *Testbed { return newTestbed(cfg, true) }

// NewEthernetTestbed builds the two-host Ethernet world.
func NewEthernetTestbed(cfg *Config) *Testbed { return newTestbed(cfg, false) }

// ethWorld builds the two-host Ethernet world with an ARP daemon on each
// host, spawned before any workload process: the harness's Ethernet stacks
// resolve through them.
func ethWorld(cfg *Config) *Testbed {
	tb := NewEthernetTestbed(cfg)
	for _, h := range tb.hosts {
		svc, err := arp.Start(h.k, h.eth, h.ip)
		if err != nil {
			panic(err)
		}
		h.arp = svc
	}
	return tb
}

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
// testbed: the wire, both network interfaces, and both ASH systems.
func (tb *Testbed) AttachFault(pl *fault.Plane) { tb.attachFault(pl, tb.hosts...) }

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
// through the host's ARP daemon.
func (tb *Testbed) EthStack(p *aegis.Process, host int, proto byte, port uint16, svc *arp.Service) *ip.Stack {
	h := tb.host(host, true)
	return ethStack(p, h, listenFilter(h.ip, proto, port), svc)
}

// Us converts cycles to microseconds under the testbed profile.
func (tb *Testbed) Us(c sim.Time) float64 { return tb.Prof.Us(c) }
