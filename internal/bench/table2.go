package bench

import (
	"ashs/internal/aegis"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// Table2Row is one configuration's four measurements.
type Table2Row struct {
	Label   string
	UDPLat  float64 // us
	UDPTput float64 // MB/s
	TCPLat  float64 // us
	TCPTput float64 // MB/s
}

// Table2 is the UDP/TCP base-performance table (Section IV-D).
type Table2 struct {
	Rows []Table2Row
}

// PaperTable2 is Table II of the paper.
var PaperTable2 = []Table2Row{
	{"AN2; in place, no checksum", 221, 11.69, 333, 5.76},
	{"AN2; in place, with checksum", 244, 7.86, 383, 4.42},
	{"AN2; no checksum", 225, 8.57, 333, 5.02},
	{"AN2; with checksum", 244, 6.45, 384, 4.11},
	{"Ethernet; with checksum", 399, 1.02, 443, 1.03},
}

// Table2Params sizes the workloads (the paper: latency ping-pongs 4
// bytes; UDP throughput sends trains of 6 maximum-segment-size packets;
// TCP throughput writes 10 MB in 8-KB chunks with an 8-KB window).
type Table2Params struct {
	LatIters  int
	UDPTrains int
	TCPBytes  int
}

// DefaultTable2Params mirrors the paper's workloads.
func DefaultTable2Params() Table2Params {
	return Table2Params{LatIters: 10, UDPTrains: 30, TCPBytes: 10 << 20}
}

// table2Rows are Table II's configurations, in row order.
var table2Rows = []struct {
	label               string
	eth, inplace, cksum bool
}{
	{"AN2; in place, no checksum", false, true, false},
	{"AN2; in place, with checksum", false, true, true},
	{"AN2; no checksum", false, false, false},
	{"AN2; with checksum", false, false, true},
	{"Ethernet; with checksum", true, false, true},
}

// EthernetUDPPayload is the MSS-equivalent UDP payload on the Ethernet
// (1472 data bytes fill a 1514-byte frame).
const EthernetUDPPayload = 1472

// EthernetTCPMSS is the TCP segment size used on the Ethernet (the paper
// quotes 1500; 1460 is what fits with headers).
const EthernetTCPMSS = 1460

// table2Cells enumerates one cell per (configuration, measurement): every
// workload builds its own testbed, so all twenty run independently.
func table2Cells(p Table2Params) []Cell {
	var cells []Cell
	for _, r := range table2Rows {
		r := r
		opts := udp.Options{InPlace: r.inplace, Checksum: r.cksum}
		udpMSS, tcpBytes := 3072, p.TCPBytes
		if r.eth {
			// Ethernet is ~1 MB/s; keep runtime sane.
			udpMSS, tcpBytes = EthernetUDPPayload, p.TCPBytes/4
		}
		tcpCfg := func(tb *Testbed) func(host int) tcp.Config {
			return func(host int) tcp.Config {
				cfg := tcp.DefaultConfig()
				cfg.Checksum = r.cksum
				cfg.InPlace = r.inplace
				if r.eth {
					cfg.MSS = EthernetTCPMSS
				}
				cfg.Polling = true
				cfg.Sys = tb.hosts[host-1].sys
				return cfg
			}
		}
		cell := func(kind string, run func(tb *Testbed, label string) float64) Cell {
			label := "table2/" + r.label + "/" + kind
			return Cell{label, func(cfg *Config) any {
				var tb *Testbed
				if r.eth {
					tb = ethWorld(cfg)
				} else {
					tb = NewAN2Testbed(cfg)
				}
				defer tb.close()
				return run(tb, label)
			}}
		}
		cells = append(cells,
			cell("udp-lat", func(tb *Testbed, label string) float64 {
				return udpLatency(tb, label, opts, p.LatIters)
			}),
			cell("udp-tput", func(tb *Testbed, label string) float64 {
				return udpThroughput(tb, label, opts, udpMSS, p.UDPTrains)
			}),
			cell("tcp-lat", func(tb *Testbed, _ string) float64 {
				return tcpPingPong(tb, p.LatIters, nil, tcpCfg(tb))
			}),
			cell("tcp-tput", func(tb *Testbed, _ string) float64 {
				return tcpStream(tb, tcpBytes, 8192, tcpCfg(tb))
			}),
		)
	}
	return cells
}

func mergeTable2(vs []any) Table2 {
	var t Table2
	for i, r := range table2Rows {
		t.Rows = append(t.Rows, Table2Row{
			Label:   r.label,
			UDPLat:  vs[4*i].(float64),
			UDPTput: vs[4*i+1].(float64),
			TCPLat:  vs[4*i+2].(float64),
			TCPTput: vs[4*i+3].(float64),
		})
	}
	return t
}

// RunTable2 regenerates Table II.
func RunTable2(cfg *Config, p Table2Params) Table2 {
	return mergeTable2(runCells(cfg, table2Cells(p)))
}

// udpLatency measures a 4-byte UDP ping-pong between sockets on ports 53
// (host 2, echoing) and 1234 (host 1), after two warm-up round trips.
func udpLatency(tb *Testbed, label string, opts udp.Options, iters int) float64 {
	const warmup = 2
	tb.K2.Spawn("server", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.stack(p, 2, ip.ProtoUDP, 53), 53, opts)
		for i := 0; i < warmup+iters; i++ {
			m, err := sock.Recv(true)
			must(label, err)
			data := append([]byte(nil), m.Bytes(tb.K2)...)
			sock.Release(m)
			must(label, sock.SendBytes(m.From, m.FromPort, data))
		}
	})
	var total sim.Time
	tb.K1.Spawn("client", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.stack(p, 1, ip.ProtoUDP, 1234), 1234, opts)
		var start sim.Time
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				start = p.K.Now()
			}
			must(label, sock.SendBytes(tb.IP2, 53, []byte{1, 2, 3, 4}))
			m, err := sock.Recv(true)
			must(label, err)
			sock.Release(m)
		}
		total = p.K.Now() - start
	})
	tb.run()
	return tb.Us(total) / float64(iters)
}

// udpThroughput runs the paper's UDP throughput workload between the same
// two sockets: trains of 6 MSS-sized packets, each train followed by a
// small acknowledgment, after one warm-up train.
func udpThroughput(tb *Testbed, label string, opts udp.Options, mss, trains int) float64 {
	const perTrain = 6
	const warmup = 1
	var total sim.Time
	tb.K2.Spawn("server", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.stack(p, 2, ip.ProtoUDP, 53), 53, opts)
		for t := 0; t < warmup+trains; t++ {
			for i := 0; i < perTrain; i++ {
				m, err := sock.Recv(true)
				must(label, err)
				sock.Release(m)
			}
			must(label, sock.SendBytes(tb.IP1, 1234, []byte{0xac, 0x4b}))
		}
	})
	tb.K1.Spawn("client", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.stack(p, 1, ip.ProtoUDP, 1234), 1234, opts)
		payload := p.AS.MustAlloc(mss, "train-payload")
		var start sim.Time
		for t := 0; t < warmup+trains; t++ {
			if t == warmup {
				start = p.K.Now()
			}
			for i := 0; i < perTrain; i++ {
				must(label, sock.SendTo(tb.IP2, 53, payload.Base, mss))
			}
			m, err := sock.Recv(true)
			must(label, err)
			sock.Release(m)
		}
		total = p.K.Now() - start
	})
	tb.run()
	return tb.Prof.MBps(trains*perTrain*mss, total)
}

// Table renders Table II.
func (t Table2) Table() *Table {
	tab := &Table{
		Title:   "Table II: latency (us) and throughput (MB/s) for UDP and TCP",
		Columns: []string{"UDP lat", "UDP tput", "TCP lat", "TCP tput"},
	}
	for i, r := range t.Rows {
		var paper []float64
		if i < len(PaperTable2) {
			p := PaperTable2[i]
			paper = []float64{p.UDPLat, p.UDPTput, p.TCPLat, p.TCPTput}
		}
		tab.Rows = append(tab.Rows, Row{
			Label:    r.Label,
			Measured: []float64{r.UDPLat, r.UDPTput, r.TCPLat, r.TCPTput},
			Paper:    paper,
		})
	}
	return tab
}
