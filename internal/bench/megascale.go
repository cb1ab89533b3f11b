package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/flyweight"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/workload"
)

// The megascale experiment pushes the scale experiment's fan-in claim
// three orders of magnitude further: one full aegis server host versus up
// to 10^6 clients. Full client hosts cap the sweep at a few hundred (each
// pins a kernel arena and receive pool), so the clients here are
// internal/flyweight endpoints — wire-exact traffic generators with no
// kernel behind them — while the measured side stays byte-for-byte the
// scale experiment's server: same interrupt path, same DPF trie, same
// striping DMA and ASH dispatch.
//
// Three workloads sweep N:
//
//   - udp-echo: one 3-atom source filter plus a shared echo ASH per
//     endpoint. At N=10^6 the server demuxes against a million installed
//     filters; demux cyc/msg staying flat is the headline sub-linearity.
//   - tcp-pp:   full fan-in accept path (per-client listen filter, 6-atom
//     connection filter, AcceptHandoff, shared ConnTable); reports the
//     table's peak bucket spread.
//   - nfs-read: RPC fan-in to one server socket whose ring runs a
//     high-watermark, so the incast phase exercises shed-then-retry.
//
// Each cell drives an open-loop Poisson trace (steady state), then two
// synchronized incast waves; steady-state and incast tails are reported
// separately. Worlds are self-contained and deterministic, so output is
// byte-identical at any -parallel level.

// megaWorkload is one row of the experiment: everything that differs
// between the three sweeps, as data.
type megaWorkload struct {
	name, desc string

	// full and quick are the endpoint ladders (quick caps them for CI). TCP
	// keeps a connection of server state per client and NFS serves ~1.1
	// reads/ms, so their sweeps stop earlier; udp-echo is the pure-demux
	// ladder that reaches 10^6 installed filters.
	full, quick []int

	// events sizes the steady-state trace (a quarter of it in quick mode);
	// eventsPerClient, when set, caps it for small fleets.
	events, eventsPerClient int

	// waveClients sizes the incast waves: each wave must be drainable
	// within the fleet's retry span.
	waveClients int

	// retry is the backoff schedule (Budget counts reply-wait windows; see
	// flyweight.Config). Windows sit well above each workload's worst
	// incast tail so a queued-but-alive request is not retransmitted into
	// the burst that delayed it.
	retry retry.Policy

	// gapUs is the offered steady-state load, the fleet-wide mean
	// inter-arrival gap, chosen below the workload's service capacity so
	// the Poisson phase measures queueing, not collapse. Capacity is
	// reply-serialization bound on the 10-Mb/s Ethernet (the scale
	// experiment's measured ceilings). size is the traced message size.
	gapUs float64
	size  int

	// kind is what the fleet's endpoints run, against the server's port.
	kind flyweight.Kind
	port uint16

	// The server of an n-endpoint world (the flyweight clients are not
	// hosts) has srvMem bytes of memory and a receive pool of rxBufs plus
	// rxPerClient per endpoint.
	srvMem, rxBufs, rxPerClient int

	// extra are the columns only this workload has: bucket spread is a
	// ConnTable property, sheds an admission-control one.
	extra []megaColumn
}

// megaColumn is one extra column: six wide, value printed with format.
type megaColumn struct {
	name, format string
	value        func(MegaResult) any
}

var megaWorkloads = []*megaWorkload{
	{
		name:        "udp-echo",
		desc:        fmt.Sprintf("%d-byte UDP echo, one 3-atom filter + shared ASH per endpoint", megaPayload),
		full:        []int{1024, 8192, 65536, 262144, 1048576},
		quick:       []int{1024, 8192, 65536},
		events:      32768,
		waveClients: 1024,
		retry:       retry.Policy{BaseUs: 400_000, Budget: 4},
		gapUs:       150, // capacity ~10 echoes/ms
		size:        megaPayload,
		kind:        flyweight.UDPEcho,
		port:        scaleEchoPort,
		srvMem:      fanInServerMem,
		rxBufs:      megaUDPPool,
	},
	{
		name:            "tcp-pp",
		desc:            fmt.Sprintf("%d-byte TCP ping-pong via fan-in accept + ConnTable", megaPayload),
		full:            []int{256, 1024, 4096},
		quick:           []int{256, 1024},
		events:          32768,
		eventsPerClient: 8, // ~8 ping-pong rounds per connection
		waveClients:     1024,
		retry:           retry.Policy{BaseUs: 800_000, Budget: 6},
		gapUs:           600, // capacity ~3.6 TCP rounds/ms
		size:            megaPayload,
		kind:            flyweight.TCPPingPong,
		port:            scaleTCPPort,
		srvMem:          megaTCPServerMem,
		rxBufs:          fanInServerRxSlack,
		rxPerClient:     2,
		extra: []megaColumn{
			{"conns", "%6d", func(r MegaResult) any { return r.Conns }},
			{"spread", "%6.2f", func(r MegaResult) any { return r.Spread }},
		},
	},
	{
		// The server serves only ~1.1 reads/ms (a 1-KiB read reply alone
		// serializes for ~870 us), ~9x slower than the echo path: a
		// shorter trace and half-size waves. The tighter retry window is
		// the point: shed requests must come back quickly, and the van der
		// Corput first slot spreads the comeback.
		name:        "nfs-read",
		desc:        fmt.Sprintf("%d-byte NFS reads, one socket, ring high-water %d", megaReadBytes, megaNFSHighWater),
		full:        []int{1024, 8192, 65536},
		quick:       []int{1024, 8192},
		events:      8192,
		waveClients: 512,
		retry:       retry.Policy{BaseUs: 50_000, CapUs: 800_000, Budget: 10},
		gapUs:       2500,
		size:        megaReadBytes,
		kind:        flyweight.NFSRead,
		port:        scaleNFSPort,
		srvMem:      fanInServerMem,
		rxBufs:      megaNFSPool,
		extra:       []megaColumn{{"sheds", "%6d", func(r MegaResult) any { return r.Sheds }}},
	},
}

// traceEvents sizes the steady-state trace of an n-endpoint cell.
func (wl *megaWorkload) traceEvents(cfg *Config, n int) int {
	events := wl.events
	if wl.eventsPerClient > 0 {
		events = min(events, wl.eventsPerClient*n)
	}
	if cfg.quick() {
		events /= 4
	}
	return events
}

// cell is the workload's n-endpoint cell.
func (wl *megaWorkload) cell(n int) Cell {
	return onWorld(fmt.Sprintf("megascale/%s/N=%d", wl.name, n),
		worldSpec{eth: true, fanIn: true, srvMem: wl.srvMem, srvRxBufs: wl.rxBufs + wl.rxPerClient*n},
		megaFanIn{wl.name, n})
}

// megaWorkloadNamed is the row of the experiment called name.
func megaWorkloadNamed(name string) *megaWorkload {
	for _, wl := range megaWorkloads {
		if wl.name == name {
			return wl
		}
	}
	panic("bench: no megascale workload " + name)
}

// megaFanIn drives the named workload's fleet of n flyweight endpoints
// against the server of its world.
type megaFanIn struct {
	workload string
	n        int
}

func (d megaFanIn) drive(cfg *Config, w *world) any {
	wl := megaWorkloadNamed(d.workload)
	return wl.run(cfg, w, d.n, wl.traceEvents(cfg, d.n))
}

// run drives a fleet of n endpoints through a trace of events arrivals
// against the server of w.
func (wl *megaWorkload) run(cfg *Config, w *world, n, events int) MegaResult {
	flt := megaFleet(w, wl.kind, n, wl.port, wl.retry)
	switch wl.kind {
	case flyweight.TCPPingPong:
		return runMegaTCP(wl, cfg, w, flt, n, events)
	case flyweight.NFSRead:
		return runMegaNFS(wl, cfg, w, flt, n, events)
	}
	return runMegaUDP(wl, cfg, w, flt, n, events)
}

const (
	megaSeed      = 61096 // fixed run seed (trace + retry jitter)
	megaPayload   = 64    // echo message size (UDP and TCP)
	megaReadBytes = 1024  // NFS read size
	megaFileBytes = 4096  // NFS served file
	megaWaves     = 2     // synchronized incast waves per cell
	megaQuietUs   = 50_000
	megaWaveGapUs = 500_000

	// megaNFSHighWater is the nfsd ring's admission limit: the incast
	// wave overruns it and the shed-then-retry path must recover.
	megaNFSHighWater = 96

	megaTCPServerMem = 160 << 20 // 4096 live connections of window state: a brk of 120.4 MiB
	megaUDPPool      = 64        // echo ASH consumes in the interrupt path
	megaNFSPool      = 256       // ring holds frames up to the high water
)

// MegaResult is one (workload, N) cell's measurement.
type MegaResult struct {
	Workload string
	N        int
	// Filters and TrieDepth describe the server's DPF engine after
	// install: at N=10^6 the udp-echo trie holds a million filters and is
	// still 3 deep.
	Filters   int
	TrieDepth int
	Msgs      uint64 // completed client operations (both phases)
	// CycPerMsg / DemuxPerMsg are the server's kernel receive cost per
	// accepted frame, exactly as the scale experiment computes them.
	CycPerMsg   float64
	DemuxPerMsg float64
	// BytesPerEp is the static flyweight footprint per endpoint.
	BytesPerEp int
	// P99Us is the steady-state (Poisson) tail; IncastP99Us the tail of
	// the synchronized waves.
	P99Us       float64
	IncastP99Us float64
	Retries     uint64
	Failures    uint64
	Sheds       uint64 // server high-watermark sheds (nfs-read)
	// Conns / Spread: peak concurrent ConnTable occupancy and the
	// max/mean bucket load at that peak (tcp-pp only).
	Conns  int
	Spread float64
}

// megaFleet attaches n flyweight endpoints to w's switch, after the server
// so its port (and therefore its address) precedes the fleet's.
func megaFleet(w *world, kind flyweight.Kind, n int, port uint16, pol retry.Policy) *flyweight.Fleet {
	srv := w.srv()
	flt := flyweight.NewFleet(flyweight.Config{
		Eng: w.eng, Prof: w.prof, Sw: w.sw,
		Kind: kind, N: n,
		ServerIP: srv.ip, ServerLink: srv.addr(), ServerPort: port,
		ClientPort: scaleClientPort,
		Payload:    megaPayload,
		ReadBytes:  megaReadBytes, FileBytes: megaFileBytes, Handle: uint32(nfs.RootHandle) + 1,
		Retry: pol, Seed: megaSeed,
	})
	srv.fleet = flt
	return flt
}

// megaRun drives the cell's open-loop Poisson trace and incast waves to
// quiescence and folds the server counters and fleet histograms into the
// result.
func megaRun(cfg *Config, w *world, flt *flyweight.Fleet, wl *megaWorkload, n, events int) MegaResult {
	tr := workload.Poisson(megaSeed, workload.Spec{
		Clients: n, Events: events, MeanGapUs: wl.gapUs, Size: wl.size})
	flt.Run(tr, megaWaves, wl.waveClients, megaQuietUs, megaWaveGapUs)
	w.run()

	srv := w.srv()
	r := MegaResult{
		Workload: wl.name, N: n,
		Filters: srv.eth.Filters(), TrieDepth: srv.eth.TrieDepth(),
		Msgs:       flt.Completed(),
		BytesPerEp: flt.StaticBytesPerEndpoint(),
		Retries:    flt.Retries, Failures: flt.Failures,
		Sheds: srv.nic.Rx.Shed,
	}
	r.CycPerMsg, r.DemuxPerMsg = w.rxCost(srv)
	r.P99Us = w.prof.Us(flt.Hist.Quantile(0.99))
	r.IncastP99Us = w.prof.Us(flt.IncastHist.Quantile(0.99))

	// The server trie's footprint, readable without a heap profile.
	c := srv.eth.TrieCensus()
	cfg.note("[megascale %s N=%d server trie: nodes %d (%d free), branches %d (%d free), "+
		"tables %d, table slots %d (%d used, probe mean %.3f max %d), atoms %d (%d free), "+
		"ids %d (%d live), %.1f MiB]",
		wl.name, n, c.Nodes, c.FreeNodes, c.Branches, c.FreeBranches,
		c.Tables, c.TableSlots, c.TableKids, c.ProbeMean, c.ProbeMax, c.Atoms, c.FreeAtoms,
		c.IDs, c.LiveIDs, float64(c.Bytes)/(1<<20))
	return r
}

// megaSourceFilter is the per-endpoint demux filter of the udp-echo
// sweep: 3 atoms (IPv4, UDP, source host). Every endpoint's filter
// shares the first two levels and diverges in one multi-way branch on
// the source address, which is why a 10^6-filter trie is 3 deep and a
// walk's cost is flat in N.
func megaSourceFilter(src ip.Addr) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq8(ether.HeaderLen+9, ip.ProtoUDP).
		Eq32(ether.HeaderLen+12, ipU32(src))
}

// runMegaUDP: one shared echo ASH behind N source filters. The handler
// is shared — a per-endpoint closure would put N copies of everything a
// closure pins on the heap — so it derives the reply's destination from
// the frame's provenance (the ring entry's source port) instead of
// captured state.
func runMegaUDP(wl *megaWorkload, cfg *Config, w *world, flt *flyweight.Fleet, n, events int) MegaResult {
	srv := w.srv()

	srv.k.Spawn("echo", func(p *aegis.Process) {
		// A flyweight's echo request starts with 8 bytes of tag: its
		// sequence number and the client id.
		ash := udpEchoASH(srv, p, "mega-echo", 8)
		// One binding serves the whole set. The engine copies what it
		// installs, so one filter is built and its source-address atom
		// patched per endpoint.
		f := megaSourceFilter(ip.Addr{})
		src := &f.Atoms[len(f.Atoms)-1]
		b, err := srv.eth.BindFilterSet(p, n, func(i int, g *dpf.Filter) {
			src.Value = ipU32(flt.Addr(i))
			g.Atoms = f.Atoms
		})
		if err != nil {
			panic(err)
		}
		ash.Attach(b)
	})

	return megaRun(cfg, w, flt, wl, n, events)
}

// runMegaTCP: the scale experiment's fan-in accept path (acceptFanIn),
// served to flyweight FlyConn clients. The server echoes
// until the client's FIN (flyweights close first), so connection
// lifetimes follow the trace without the server knowing the schedule.
func runMegaTCP(wl *megaWorkload, cfg *Config, w *world, flt *flyweight.Fleet, n, events int) MegaResult {
	srv := w.srv()

	tbl := tcp.NewConnTable(n / 4)
	peak, spread := 0, 0.0
	for i := 0; i < n; i++ {
		srv.k.Spawn(fmt.Sprintf("srv-%06d", i), func(p *aegis.Process) {
			conn := w.acceptFanIn(p, scaleTCPPort, flt.Addr(i), tbl)
			// The engine serializes processes, so the peak snapshot needs
			// no lock; deterministic because accept order is.
			if l := tbl.Len(); l > peak {
				peak, spread = l, tbl.Spread()
			}
			echoFanIn(p, conn, tbl, megaPayload, -1)
		})
	}

	r := megaRun(cfg, w, flt, wl, n, events)
	r.Conns, r.Spread = peak, spread
	return r
}

// runMegaNFS: RPC fan-in against one nfsd socket whose ring runs the
// high-watermark admission plane. The incast waves overrun it; sheds and
// the fleet's jittered retries are the measurement.
func runMegaNFS(wl *megaWorkload, cfg *Config, w *world, flt *flyweight.Fleet, n, events int) MegaResult {
	if fh, _ := w.startNFSD(megaFileBytes, megaNFSHighWater); uint32(fh) != uint32(nfs.RootHandle)+1 {
		panic("megascale: unexpected NFS file handle")
	}
	return megaRun(cfg, w, flt, wl, n, events)
}

// megascaleCells enumerates the sweep, workload-major like scale.
func megascaleCells(cfg *Config) []Cell {
	var cells []Cell
	for _, wl := range megaWorkloads {
		for _, n := range sized(cfg, wl.quick, wl.full) {
			cells = append(cells, wl.cell(n))
		}
	}
	return cells
}

// renderMegascale formats one table per workload: the common columns, then
// the workload's own.
func renderMegascale(cfg *Config, vs []any) string {
	var b strings.Builder
	b.WriteString("Megascale: flyweight fan-in, one full server host\n")
	b.WriteString("  (clients are kernel-free flyweight endpoints; the server is the same full\n")
	b.WriteString("   aegis kernel as `scale` — cyc/msg computed identically)\n")
	idx := 0
	for _, wl := range megaWorkloads {
		fmt.Fprintf(&b, "  %s: %s\n", wl.name, wl.desc)
		fmt.Fprintf(&b, "    %8s  %8s  %5s  %6s  %9s  %8s  %5s  %8s  %11s  %7s  %5s",
			"N", "filters", "depth", "msgs", "demux/msg", "cyc/msg", "B/ep",
			"p99[us]", "incast[us]", "retries", "fail")
		for _, col := range wl.extra {
			fmt.Fprintf(&b, "  %6s", col.name)
		}
		b.WriteByte('\n')
		for range sized(cfg, wl.quick, wl.full) {
			r := vs[idx].(MegaResult)
			idx++
			fmt.Fprintf(&b, "    %8d  %8d  %5d  %6d  %9.1f  %8.1f  %5d  %8.1f  %11.1f  %7d  %5d",
				r.N, r.Filters, r.TrieDepth, r.Msgs, r.DemuxPerMsg, r.CycPerMsg,
				r.BytesPerEp, r.P99Us, r.IncastP99Us, r.Retries, r.Failures)
			for _, col := range wl.extra {
				fmt.Fprintf(&b, "  "+col.format, col.value(r))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
