package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"ashs/internal/aegis"
	"ashs/internal/fault"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
)

// ChaosParams configures the chaos soak: a seed matrix crossed with a set
// of fault schedules, each running a bulk TCP transfer and an NFS
// create/write/read-back sequence concurrently on one faulted testbed.
type ChaosParams struct {
	Seeds     []int64
	TCPBytes  int // bulk-transfer size, payload byte-verified at the sink
	NFSBytes  int // file size written in 4 KB chunks and read back
	Schedules []fault.Schedule
}

// DefaultChaosParams is the full soak: 10 MB TCP + 64 KB NFS under every
// canned schedule, three seeds each.
func DefaultChaosParams() ChaosParams {
	return ChaosParams{
		Seeds:     []int64{1, 2, 3},
		TCPBytes:  10 << 20,
		NFSBytes:  64 << 10,
		Schedules: fault.Canned(),
	}
}

// QuickChaosParams is the smoke-test variant (one seed, 1 MB TCP).
func QuickChaosParams() ChaosParams {
	return ChaosParams{
		Seeds:     []int64{1},
		TCPBytes:  1 << 20,
		NFSBytes:  16 << 10,
		Schedules: fault.Canned(),
	}
}

// ChaosResult is one (schedule, seed) cell. The struct is comparable;
// rerunning a cell must reproduce it field-for-field, injected-fault
// counters included — that equality is the determinism check.
type ChaosResult struct {
	Schedule string
	Seed     int64

	// Workload outcomes: both transfers completed with every payload
	// byte verified at the far end.
	TCPOk, NFSOk bool
	TCPMBps      float64

	// What the plane injected.
	Faults fault.Counters

	// How the stack absorbed it.
	InjectedDevDrops  uint64 // device ring/pool losses forced by the plane
	LoadDevDrops      uint64 // genuine pool exhaustion + watermark sheds
	CRCDrops          uint64 // frames the boards' CRC rejected
	InvoluntaryAborts uint64 // forced handler aborts taken
	AbortFallbacks    uint64 // messages re-vectored to the default path
	TrippedHandlers   uint64 // handlers de-installed by the trip threshold
	Retransmits       uint64 // TCP segments retransmitted (both ends)
	BadChecksum       uint64 // TCP end-to-end checksum rejections
	ReasmTimeouts     uint64 // IP reassembly evictions (both ends)
	NFSResent         uint64 // NFS requests retried
}

// chaosCells enumerates one cell per (schedule, seed) — the natural shard
// of the soak matrix.
func chaosCells(p ChaosParams) []Cell {
	var cells []Cell
	for _, sched := range p.Schedules {
		sched := sched
		for _, seed := range p.Seeds {
			seed := seed
			cells = append(cells, Cell{fmt.Sprintf("chaos/%s/seed%d", sched.Name, seed),
				func(cfg *Config) any { return runChaosOne(cfg, seed, sched, p) }})
		}
	}
	return cells
}

// RunChaos executes the full matrix.
func RunChaos(cfg *Config, p ChaosParams) []ChaosResult {
	vs := runCells(cfg, chaosCells(p))
	out := make([]ChaosResult, len(vs))
	for i, v := range vs {
		out[i] = v.(ChaosResult)
	}
	return out
}

// chaosPattern is the deterministic payload byte at offset i.
func chaosPattern(i int) byte { return byte((i*31 + 7) ^ (i >> 8)) }

// The pattern depends on the low 16 bits of the offset only. chaosTable
// holds two periods of it, so the window of up to a period that starts at
// any offset is one contiguous slice, and the workloads fill and verify
// their chunks with a copy and a compare instead of a call per byte. It is
// built by the first cell that needs it (cells run in parallel), not at
// package initialisation: every process that links this package would pay
// for that, and only chaos reads it.
const chaosPeriod = 1 << 16

var chaosTable struct {
	once sync.Once
	b    [2 * chaosPeriod]byte
}

// chaosWindow is the pattern at offsets [off, off+n), n <= chaosPeriod.
func chaosWindow(off, n int) []byte {
	chaosTable.once.Do(func() {
		for i := range chaosTable.b {
			chaosTable.b[i] = chaosPattern(i)
		}
	})
	off %= chaosPeriod
	return chaosTable.b[off : off+n]
}

// chaosFill writes the pattern at offsets off.. into data.
func chaosFill(data []byte, off int) { copy(data, chaosWindow(off, len(data))) }

// chaosCheck reports whether data is the pattern at offsets off...
func chaosCheck(data []byte, off int) bool { return bytes.Equal(data, chaosWindow(off, len(data))) }

// runChaosOne runs one (schedule, seed) cell: a fresh two-host AN2 world
// with the fault plane attached at every layer, a TCP bulk transfer on
// VC 7 (ASH fast path on both ends), and an NFS session on VC 5 — both
// must finish with byte-verified payloads despite the schedule.
func runChaosOne(cfg *Config, seed int64, sched fault.Schedule, p ChaosParams) ChaosResult {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	pl := fault.New(seed, sched)
	tb.AttachFault(pl)
	tb.Sys1.AbortTripThreshold = 64
	tb.Sys2.AbortTripThreshold = 64

	res := ChaosResult{Schedule: sched.Name, Seed: seed}

	tcpCfg := func(host int) tcp.Config {
		c := tcp.DefaultConfig()
		c.Mode = tcp.ModeASH
		c.Checksum = true
		c.Polling = true
		c.MaxRetransmit = 16
		c.Sys = tb.hosts[host-1].sys
		return c
	}

	const chunk = 8192
	var srvConn, cliConn *tcp.Conn
	tcpSunk, tcpDone := 0, false
	tcpVerified := true
	tb.K2.Spawn("tcp-server", func(proc *aegis.Process) {
		conn, err := tcp.Accept(tb.stack(proc, 2, ip.ProtoTCP, 80), tcpCfg(2), 80)
		if err != nil {
			tcpDone = true
			return
		}
		srvConn = conn
		buf := proc.AS.MustAlloc(chunk+64, "rx")
		for tcpSunk < p.TCPBytes {
			n, err := conn.Read(buf.Base, chunk)
			if err != nil {
				break
			}
			if !chaosCheck(proc.AS.MustBytes(buf.Base, n), tcpSunk) {
				tcpVerified = false
			}
			tcpSunk += n
		}
		tcpDone = true
		_ = conn.Close()
	})
	var tcpStart, tcpEnd float64
	tb.K1.Spawn("tcp-client", func(proc *aegis.Process) {
		conn, err := tcp.Connect(tb.stack(proc, 1, ip.ProtoTCP, 1234), tcpCfg(1), 1234, tb.IP2, 80)
		if err != nil {
			return
		}
		cliConn = conn
		buf := proc.AS.MustAlloc(chunk, "tx")
		tcpStart = tb.Us(proc.K.Now())
		for sent := 0; sent < p.TCPBytes; {
			n := chunk
			if p.TCPBytes-sent < n {
				n = p.TCPBytes - sent
			}
			chaosFill(proc.AS.MustBytes(buf.Base, n), sent)
			if err := conn.Write(buf.Base, n); err != nil {
				return
			}
			sent += n
		}
		tcpEnd = tb.Us(proc.K.Now())
	})

	srv := nfs.NewServer()
	tb.K2.Spawn("nfsd", func(proc *aegis.Process) {
		st := tb.stack(proc, 2, ip.ProtoUDP, 2049)
		sock := udp.NewSocket(st, 2049, udp.Options{Checksum: true})
		srv.Serve(proc, sock, 0)
	})
	var nfsClient *nfs.Client
	nfsDone, nfsVerified := false, false
	tb.K1.Spawn("nfs-client", func(proc *aegis.Process) {
		defer func() { nfsDone = true }()
		st := tb.stack(proc, 1, ip.ProtoUDP, 900)
		sock := udp.NewSocket(st, 900, udp.Options{Checksum: true})
		c := nfs.NewClient(sock, tb.IP2, 2049)
		c.RetryUs, c.MaxRetryUs, c.Retries = 10_000, 200_000, 12
		nfsClient = c
		attr, err := c.Create(proc, nfs.RootHandle, "chaos")
		if err != nil {
			return
		}
		const nchunk = 4096
		for off := 0; off < p.NFSBytes; off += nchunk {
			n := nchunk
			if p.NFSBytes-off < n {
				n = p.NFSBytes - off
			}
			data := make([]byte, n)
			chaosFill(data, off)
			if _, err := c.Write(proc, attr.Handle, uint32(off), data); err != nil {
				return
			}
		}
		ok := true
		for off := 0; off < p.NFSBytes; off += nchunk {
			n := nchunk
			if p.NFSBytes-off < n {
				n = p.NFSBytes - off
			}
			data, err := c.Read(proc, attr.Handle, uint32(off), uint32(n))
			if err != nil || len(data) != n {
				return
			}
			if !chaosCheck(data, off) {
				ok = false
			}
		}
		nfsVerified = ok
	})

	// The NFS server loops forever, so the engine only drains when a
	// workload gave up and left its peer blocked — an integrity failure
	// the row reports. Otherwise advance in slices until both workloads
	// report in, with a bound of 10 simulated minutes.
	tb.runUntil(func() bool { return (tcpDone && nfsDone) || tb.Eng.Pending() == 0 },
		600_000_000, 1_000_000)

	res.TCPOk = tcpDone && tcpVerified && tcpSunk == p.TCPBytes
	res.NFSOk = nfsDone && nfsVerified
	if res.TCPOk && tcpEnd > tcpStart {
		res.TCPMBps = float64(p.TCPBytes) / (tcpEnd - tcpStart)
	}
	res.Faults = pl.C
	for _, h := range tb.hosts {
		rx := h.nic.Rx
		res.InjectedDevDrops += rx.InjectedRing + rx.InjectedPool
		res.LoadDevDrops += rx.NoBuffer + rx.Shed
		res.CRCDrops += rx.CRC
	}
	res.InvoluntaryAborts = tb.Sys1.InvoluntaryAborts + tb.Sys2.InvoluntaryAborts
	res.AbortFallbacks = tb.Sys1.AbortFallbacks + tb.Sys2.AbortFallbacks
	res.TrippedHandlers = tb.Sys1.TrippedHandlers + tb.Sys2.TrippedHandlers
	if cliConn != nil {
		res.Retransmits += cliConn.Retransmits
		res.BadChecksum += cliConn.BadChecksum
		res.ReasmTimeouts += cliConn.St.ReasmTimeouts
	}
	if srvConn != nil {
		res.Retransmits += srvConn.Retransmits
		res.BadChecksum += srvConn.BadChecksum
		res.ReasmTimeouts += srvConn.St.ReasmTimeouts
	}
	if nfsClient != nil {
		res.NFSResent = nfsClient.Resent
	}
	return res
}

// RenderChaos formats the matrix with per-cell injected/absorbed counts.
func RenderChaos(results []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak: deterministic fault schedules vs. delivery integrity\n")
	fmt.Fprintf(&b, "  (tcp/nfs OK = transfer completed, payload byte-verified)\n")
	fmt.Fprintf(&b, "  %-12s %5s %4s %4s %8s %6s %6s %6s %6s %6s %6s %6s\n",
		"schedule", "seed", "tcp", "nfs", "MB/s", "drop", "crc", "abort", "fallbk", "rexmt", "badck", "resent")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 92))
	for _, r := range results {
		okc := func(ok bool) string {
			if ok {
				return "ok"
			}
			return "FAIL"
		}
		drops := r.Faults.WireDrops + r.Faults.DeviceRingDrops + r.Faults.DevicePoolDrops
		fmt.Fprintf(&b, "  %-12s %5d %4s %4s %8.2f %6d %6d %6d %6d %6d %6d %6d\n",
			r.Schedule, r.Seed, okc(r.TCPOk), okc(r.NFSOk), r.TCPMBps,
			drops, r.CRCDrops, r.InvoluntaryAborts, r.AbortFallbacks,
			r.Retransmits, r.BadChecksum, r.NFSResent)
	}
	return b.String()
}
