package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/obs"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// The scale experiment measures many-client fan-in: N client hosts on one
// Ethernet segment all talk to a single server host, for N up to 512, and
// the server's per-message receive cost is examined as endpoints multiply.
// The paper's claim under test is that ASH-style demultiplexing scales
// sub-linearly: the DPF trie classifies a frame in O(filter depth)
// regardless of how many endpoint filters are installed (the per-endpoint
// atoms collapse into one multi-way branch), and batched interrupt service
// amortizes the interrupt entry across a burst of arrivals, so cycles per
// message at N=512 are far below 512x the N=1 cost.
//
// Three workloads fan in, each a (workload, N) cell of the runner:
//
//   - udp-ash:  64-byte UDP echo answered entirely by a per-client ASH
//   - tcp-fast: 64-byte TCP ping-pong through the small-message fast path
//   - nfs-read: 1 KiB NFS reads against one server socket
//
// Scale worlds are fan-in worlds (one server + N small client hosts), which
// the global Obs/Fault hooks do not reach; each cell measures client RTTs
// into its own obs.Histogram and reads the server's demux/interrupt
// counters, which keeps every cell self-contained and its output
// byte-identical at any -parallel level.

// scaleNs is the client-count sweep.
var scaleNs = []int{1, 4, 16, 64, 256, 512}

// scaleWorkloads names the fan-in workloads, in presentation order.
var scaleWorkloads = []string{"udp-ash", "tcp-fast", "nfs-read"}

const (
	scaleEchoPort   = 7
	scaleTCPPort    = 80
	scaleNFSPort    = 2049
	scaleClientPort = 1234
	scalePayload    = 64   // echo message size (UDP and TCP)
	scaleReadBytes  = 1024 // NFS read size
	scaleFileBytes  = 4096 // NFS served file
	scaleStaggerUs  = 5    // per-client start offset

	// Client hosts are deliberately tiny (a 512-host world must fit in
	// memory): enough for one UDP socket, one TCP connection, and an
	// 8-buffer receive pool.
	scaleClientMem    = 256 << 10
	scaleClientRxBufs = 8
)

// ScaleResult is one (workload, N) cell's measurement.
type ScaleResult struct {
	Workload string
	N        int
	Msgs     uint64  // client operations completed
	ThrMsgMs float64 // aggregate throughput, messages per millisecond
	MeanUs   float64 // mean client latency
	P50Us    float64 // histogram-bucket p50 upper bound
	P99Us    float64 // histogram-bucket p99 upper bound
	// CycPerMsg is the server's kernel receive cost per accepted frame:
	// interrupt entries actually taken plus driver service plus DPF
	// classification. Sub-linear growth vs N is the experiment's claim.
	CycPerMsg   float64
	DemuxPerMsg float64 // DPF classification cycles per accepted frame
	BatchedPct  float64 // interrupt entries absorbed by batching, percent
}

// runScaleCell builds a fresh n-client world, fans the workload in, and
// folds client latencies plus server counters into the result.
func runScaleCell(workload string, n, m int) ScaleResult {
	// The server's pool must absorb a burst with every client's message in
	// flight at once.
	w := newFanIn(fanInServerMem, 2*n+fanInServerRxSlack, n, scaleClientMem, scaleClientRxBufs)
	defer w.close()
	hist := &obs.Histogram{}
	starts := make([]sim.Time, n)
	ends := make([]sim.Time, n)

	switch workload {
	case "udp-ash":
		scaleUDPASH(w, m, hist, starts, ends)
	case "tcp-fast":
		scaleTCPFast(w, m, hist, starts, ends)
	case "nfs-read":
		scaleNFSRead(w, m, hist, starts, ends)
	default:
		panic("bench: unknown scale workload " + workload)
	}
	w.run()

	var lo, hi sim.Time
	for i := 0; i < n; i++ {
		if i == 0 || starts[i] < lo {
			lo = starts[i]
		}
		if ends[i] > hi {
			hi = ends[i]
		}
	}
	r := ScaleResult{Workload: workload, N: n, Msgs: hist.Count()}
	if us := w.prof.Us(hi - lo); us > 0 {
		r.ThrMsgMs = float64(r.Msgs) / us * 1000
	}
	if r.Msgs > 0 {
		r.MeanUs = w.prof.Us(hist.Sum()) / float64(r.Msgs)
	}
	r.P50Us = w.prof.Us(hist.Quantile(0.50))
	r.P99Us = w.prof.Us(hist.Quantile(0.99))

	k := w.srv().k
	r.CycPerMsg, r.DemuxPerMsg = w.rxCost(w.srv())
	if total := k.Interrupts + k.BatchedInterrupts; total > 0 {
		r.BatchedPct = 100 * float64(k.BatchedInterrupts) / float64(total)
	}
	return r
}

// scaleUDPASH installs one 6-atom filter plus echo ASH per client on the
// server; each client ping-pongs m 64-byte datagrams through its own
// socket. The server never schedules a process: the handlers answer from
// the interrupt path.
func scaleUDPASH(w *world, m int, hist *obs.Histogram, starts, ends []sim.Time) {
	srv := w.srv()
	srv.k.Spawn("echo", func(p *aegis.Process) {
		for i, c := range w.cli() {
			f := connFilter(srv.ip, ip.ProtoUDP, scaleEchoPort, c.ip, scaleClientPort)
			b, err := srv.eth.BindFilter(p, f)
			if err != nil {
				panic(err)
			}
			udpEchoASH(srv, p, fmt.Sprintf("udp-echo-%d", i), 0).Attach(b)
		}
	})

	for i, c := range w.cli() {
		c.k.Spawn("client", func(p *aegis.Process) {
			sock := udp.NewSocket(
				ethStack(p, c, listenFilter(c.ip, ip.ProtoUDP, scaleClientPort), w.res),
				scaleClientPort, udp.Options{})
			payload := make([]byte, scalePayload)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			p.Compute(w.prof.Cycles(float64(i) * scaleStaggerUs))
			starts[i] = p.K.Now()
			for j := 0; j < m; j++ {
				t0 := p.K.Now()
				if err := sock.SendBytes(srv.ip, scaleEchoPort, payload); err != nil {
					panic(err)
				}
				msg, err := sock.Recv(false)
				if err != nil {
					panic(err)
				}
				if msg.N != scalePayload {
					panic(fmt.Sprintf("scale: echo returned %d bytes", msg.N))
				}
				sock.Release(msg)
				hist.Observe(p.K.Now() - t0)
			}
			ends[i] = p.K.Now()
		})
	}
}

// scaleTCPFast accepts one connection per client through the fan-in path
// (acceptFanIn), then echoes m small messages through the fast path, with
// the shared ConnTable tracking ownership.
func scaleTCPFast(w *world, m int, hist *obs.Histogram, starts, ends []sim.Time) {
	srv := w.srv()
	tbl := tcp.NewConnTable(0)
	for i, c := range w.cli() {
		srv.k.Spawn(fmt.Sprintf("srv-%d", i), func(p *aegis.Process) {
			echoFanIn(p, w.acceptFanIn(p, scaleTCPPort, c.ip, tbl), tbl, scalePayload, m)
		})
	}

	for i, c := range w.cli() {
		c.k.Spawn("client", func(p *aegis.Process) {
			p.Compute(w.prof.Cycles(float64(i) * scaleStaggerUs))
			st := ethStack(p, c, listenFilter(c.ip, ip.ProtoTCP, scaleClientPort), w.res)
			conn, err := tcp.Connect(st, fanInTCPCfg(nil), scaleClientPort, srv.ip, scaleTCPPort)
			if err != nil {
				panic(err)
			}
			payload := make([]byte, scalePayload)
			for j := range payload {
				payload[j] = byte(i ^ j)
			}
			buf := p.AS.MustAlloc(scalePayload, "reply")
			starts[i] = p.K.Now()
			for j := 0; j < m; j++ {
				t0 := p.K.Now()
				if err := conn.WriteBytes(payload); err != nil {
					panic(err)
				}
				if err := conn.ReadFull(buf.Base, scalePayload); err != nil {
					panic(err)
				}
				hist.Observe(p.K.Now() - t0)
			}
			ends[i] = p.K.Now()
			_ = conn.Close()
		})
	}
}

// scaleNFSRead serves one in-memory file from a single server socket; each
// client issues m 1 KiB reads. The server is one process draining one
// ring — fan-in pressure shows up as queueing in the latency tail.
func scaleNFSRead(w *world, m int, hist *obs.Histogram, starts, ends []sim.Time) {
	srv := w.srv()
	fh, data := w.startNFSD(scaleFileBytes, 0)

	for i, c := range w.cli() {
		c.k.Spawn("client", func(p *aegis.Process) {
			p.Compute(w.prof.Cycles(float64(i) * scaleStaggerUs))
			sock := udp.NewSocket(
				ethStack(p, c, listenFilter(c.ip, ip.ProtoUDP, scaleClientPort), w.res),
				scaleClientPort, udp.Options{})
			cli := nfs.NewClient(sock, srv.ip, scaleNFSPort)
			// Fan-in queueing at N=512 runs to hundreds of milliseconds;
			// the default 100 ms retry timer would fire on queued-but-alive
			// requests and double the load exactly when it hurts.
			cli.RetryUs = 1_000_000
			cli.MaxRetryUs = 4_000_000
			starts[i] = p.K.Now()
			for j := 0; j < m; j++ {
				off := uint32(j*scaleReadBytes) % scaleFileBytes
				t0 := p.K.Now()
				b, err := cli.Read(p, fh, off, scaleReadBytes)
				if err != nil {
					panic(err)
				}
				if len(b) != scaleReadBytes || b[0] != data[off] {
					panic("scale: short or corrupt NFS read")
				}
				hist.Observe(p.K.Now() - t0)
			}
			ends[i] = p.K.Now()
		})
	}
}

// scaleMsgs is the per-client message count.
func scaleMsgs(cfg *Config) int {
	if cfg.quick() {
		return 4
	}
	return 8
}

// scaleCells enumerates the sweep, workload-major so each workload's table
// reads straight out of the result slice.
func scaleCells(m int) []Cell {
	var cells []Cell
	for _, wl := range scaleWorkloads {
		for _, n := range scaleNs {
			wl, n := wl, n
			cells = append(cells, Cell{
				Label: fmt.Sprintf("scale/%s/N=%d", wl, n),
				Run:   func(*Config) any { return runScaleCell(wl, n, m) },
			})
		}
	}
	return cells
}

var scaleWorkloadDesc = map[string]string{
	"udp-ash":  fmt.Sprintf("%d-byte UDP echo answered by per-client ASHs", scalePayload),
	"tcp-fast": fmt.Sprintf("%d-byte TCP ping-pong through the fast path", scalePayload),
	"nfs-read": fmt.Sprintf("%d-byte NFS reads against one server socket", scaleReadBytes),
}

// renderScale formats one table per workload: throughput and latency from
// the client histograms, per-message kernel cost from the server counters.
func renderScale(vs []any) string {
	var b strings.Builder
	b.WriteString("Scale: many-client fan-in, one Ethernet server host\n")
	b.WriteString("  (cyc/msg = server interrupt + driver + DPF demux cycles per accepted frame)\n")
	idx := 0
	for _, wl := range scaleWorkloads {
		fmt.Fprintf(&b, "  %s: %s\n", wl, scaleWorkloadDesc[wl])
		fmt.Fprintf(&b, "    %5s  %6s  %11s  %9s  %8s  %8s  %8s  %9s  %10s\n",
			"N", "msgs", "thr[msg/ms]", "mean[us]", "p50[us]", "p99[us]",
			"cyc/msg", "demux/msg", "batched[%]")
		for range scaleNs {
			r := vs[idx].(ScaleResult)
			idx++
			fmt.Fprintf(&b, "    %5d  %6d  %11.2f  %9.1f  %8.1f  %8.1f  %8.1f  %9.1f  %10.1f\n",
				r.N, r.Msgs, r.ThrMsgMs, r.MeanUs, r.P50Us, r.P99Us,
				r.CycPerMsg, r.DemuxPerMsg, r.BatchedPct)
		}
	}
	return b.String()
}
