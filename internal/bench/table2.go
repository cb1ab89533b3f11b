package bench

import (
	"ashs/internal/aegis"
	"ashs/internal/proto/arp"
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

// table2Cells enumerates one cell per (configuration, measurement): every
// workload builds its own testbed, so all twenty run independently.
func table2Cells(p Table2Params) []Cell {
	var cells []Cell
	an2 := []struct {
		label          string
		inplace, cksum bool
	}{
		{"AN2; in place, no checksum", true, false},
		{"AN2; in place, with checksum", true, true},
		{"AN2; no checksum", false, false},
		{"AN2; with checksum", false, true},
	}
	for _, c := range an2 {
		c := c
		cells = append(cells,
			Cell{"table2/" + c.label + "/udp-lat", func(cfg *Config) any {
				return udpLatencyAN2(cfg, p.LatIters, c.inplace, c.cksum)
			}},
			Cell{"table2/" + c.label + "/udp-tput", func(cfg *Config) any {
				return udpThroughputAN2(cfg, p.UDPTrains, c.inplace, c.cksum)
			}},
			Cell{"table2/" + c.label + "/tcp-lat", func(cfg *Config) any {
				return tcpLatencyAN2(cfg, p.LatIters, c.inplace, c.cksum)
			}},
			Cell{"table2/" + c.label + "/tcp-tput", func(cfg *Config) any {
				return tcpThroughputAN2(cfg, p.TCPBytes, c.inplace, c.cksum)
			}},
		)
	}
	cells = append(cells,
		Cell{"table2/Ethernet; with checksum/udp-lat", func(cfg *Config) any {
			return udpLatencyEth(cfg, p.LatIters)
		}},
		Cell{"table2/Ethernet; with checksum/udp-tput", func(cfg *Config) any {
			return udpThroughputEth(cfg, p.UDPTrains)
		}},
		Cell{"table2/Ethernet; with checksum/tcp-lat", func(cfg *Config) any {
			return tcpLatencyEth(cfg, p.LatIters)
		}},
		Cell{"table2/Ethernet; with checksum/tcp-tput", func(cfg *Config) any {
			return tcpThroughputEth(cfg, p.TCPBytes/4) // Ethernet is ~1 MB/s; keep runtime sane
		}},
	)
	return cells
}

// table2Labels is the row order of Table II.
var table2Labels = []string{
	"AN2; in place, no checksum",
	"AN2; in place, with checksum",
	"AN2; no checksum",
	"AN2; with checksum",
	"Ethernet; with checksum",
}

func mergeTable2(vs []any) Table2 {
	var t Table2
	for i, label := range table2Labels {
		t.Rows = append(t.Rows, Table2Row{
			Label:   label,
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

// --------------------------------------------------------------------
// UDP workloads
// --------------------------------------------------------------------

func udpOpts(inplace, cksum bool) udp.Options {
	return udp.Options{InPlace: inplace, Checksum: cksum}
}

func udpLatencyAN2(cfg *Config, iters int, inplace, cksum bool) float64 {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	opts := udpOpts(inplace, cksum)
	const warmup = 2
	tb.K2.Spawn("server", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.StackAN2(p, 2, 5), 53, opts)
		for i := 0; i < warmup+iters; i++ {
			m, err := sock.Recv(true)
			if err != nil {
				panic(err)
			}
			data := append([]byte(nil), m.Bytes(tb.K2)...)
			sock.Release(m)
			if err := sock.SendBytes(m.From, m.FromPort, data); err != nil {
				panic(err)
			}
		}
	})
	var total sim.Time
	tb.K1.Spawn("client", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.StackAN2(p, 1, 5), 1234, opts)
		var start sim.Time
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				start = p.K.Now()
			}
			_ = sock.SendBytes(tb.IP2, 53, []byte{1, 2, 3, 4})
			m, err := sock.Recv(true)
			if err != nil {
				panic(err)
			}
			sock.Release(m)
		}
		total = p.K.Now() - start
	})
	tb.run()
	return tb.Us(total) / float64(iters)
}

// udpTrain runs the paper's UDP throughput workload over prepared sockets:
// trains of 6 MSS-sized packets, each followed by a small acknowledgment.
func udpTrain(tb *Testbed, mkSock func(p *aegis.Process, host int) *udp.Socket,
	mss, trains int) float64 {
	const perTrain = 6
	const warmup = 1
	var total sim.Time
	tb.K2.Spawn("server", func(p *aegis.Process) {
		sock := mkSock(p, 2)
		for t := 0; t < warmup+trains; t++ {
			for i := 0; i < perTrain; i++ {
				m, err := sock.Recv(true)
				if err != nil {
					panic(err)
				}
				sock.Release(m)
			}
			_ = sock.SendBytes(tb.IP1, 1234, []byte{0xac, 0x4b})
		}
	})
	tb.K1.Spawn("client", func(p *aegis.Process) {
		sock := mkSock(p, 1)
		payload := p.AS.MustAlloc(mss, "train-payload")
		var start sim.Time
		for t := 0; t < warmup+trains; t++ {
			if t == warmup {
				start = p.K.Now()
			}
			for i := 0; i < perTrain; i++ {
				if err := sock.SendTo(tb.IP2, 53, payload.Base, mss); err != nil {
					panic(err)
				}
			}
			m, err := sock.Recv(true)
			if err != nil {
				panic(err)
			}
			sock.Release(m)
		}
		total = p.K.Now() - start
	})
	tb.run()
	return tb.Prof.MBps(trains*perTrain*mss, total)
}

func udpThroughputAN2(cfg *Config, trains int, inplace, cksum bool) float64 {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	opts := udpOpts(inplace, cksum)
	return udpTrain(tb, func(p *aegis.Process, host int) *udp.Socket {
		port := uint16(1234)
		if host == 2 {
			port = 53
		}
		return udp.NewSocket(tb.StackAN2(p, host, 5), port, opts)
	}, 3072, trains)
}

// --------------------------------------------------------------------
// TCP workloads
// --------------------------------------------------------------------

func tcpCfgAN2(tb *Testbed, host int, inplace, cksum bool) tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.Checksum = cksum
	cfg.InPlace = inplace
	cfg.Polling = true
	cfg.Sys = tb.host(host).sys
	return cfg
}

func tcpLatencyAN2(cfg *Config, iters int, inplace, cksum bool) float64 {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	return tcpPingPong(tb, iters, nil,
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Accept(tb.StackAN2(p, 2, 7), tcpCfgAN2(tb, 2, inplace, cksum), 80)
		},
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Connect(tb.StackAN2(p, 1, 7), tcpCfgAN2(tb, 1, inplace, cksum), 1234, tb.IP2, 80)
		})
}

// tcpPingPong measures a 4-byte application-level ping-pong.
func tcpPingPong(tb *Testbed, iters int, o *obsRun,
	accept func(p *aegis.Process) (*tcp.Conn, error),
	connect func(p *aegis.Process) (*tcp.Conn, error)) float64 {
	o.attach(tb)
	tb.K2.Spawn("server", func(p *aegis.Process) {
		conn, err := accept(p)
		if err != nil {
			panic(err)
		}
		buf := p.AS.MustAlloc(64, "rx")
		for i := 0; i < 2+iters; i++ {
			if err := conn.ReadFull(buf.Base, 4); err != nil {
				panic(err)
			}
			if err := conn.Write(buf.Base, 4); err != nil {
				panic(err)
			}
		}
		_ = conn.Close()
	})
	var total, start sim.Time
	done := false
	tb.K1.Spawn("client", func(p *aegis.Process) {
		conn, err := connect(p)
		if err != nil {
			panic(err)
		}
		buf := p.AS.MustAlloc(64, "tx")
		for i := 0; i < 2+iters; i++ {
			if i == 2 {
				start = p.K.Now()
			}
			if err := conn.Write(buf.Base, 4); err != nil {
				panic(err)
			}
			if err := conn.ReadFull(buf.Base, 4); err != nil {
				panic(err)
			}
		}
		total = p.K.Now() - start
		done = true
		_ = conn.Close()
	})
	tb.runUntil(func() bool { return done }, 60_000_000_000, 100_000)
	o.window(start, start+total)
	return tb.Us(total) / float64(iters)
}

// tcpStream measures bulk throughput: total bytes written in writeSize
// chunks over a synchronous-write connection.
func tcpStream(tb *Testbed, totalBytes, writeSize int,
	accept func(p *aegis.Process) (*tcp.Conn, error),
	connect func(p *aegis.Process) (*tcp.Conn, error)) float64 {
	tb.K2.Spawn("server", func(p *aegis.Process) {
		conn, err := accept(p)
		if err != nil {
			panic(err)
		}
		buf := p.AS.MustAlloc(writeSize+64, "rx")
		got := 0
		for got < totalBytes {
			n, err := conn.Read(buf.Base, writeSize)
			if err != nil {
				panic(err)
			}
			got += n
		}
		_ = conn.Close()
	})
	var total sim.Time
	done := false
	tb.K1.Spawn("client", func(p *aegis.Process) {
		conn, err := connect(p)
		if err != nil {
			panic(err)
		}
		buf := p.AS.MustAlloc(writeSize, "tx")
		start := p.K.Now()
		for sent := 0; sent < totalBytes; sent += writeSize {
			n := writeSize
			if totalBytes-sent < n {
				n = totalBytes - sent
			}
			if err := conn.Write(buf.Base, n); err != nil {
				panic(err)
			}
		}
		total = p.K.Now() - start
		done = true
		_ = conn.Close()
	})
	tb.runUntil(func() bool { return done }, 600_000_000_000, 100_000)
	return tb.Prof.MBps(totalBytes, total)
}

func tcpThroughputAN2(cfg *Config, totalBytes int, inplace, cksum bool) float64 {
	tb := NewAN2Testbed(cfg)
	defer tb.close()
	return tcpStream(tb, totalBytes, 8192,
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Accept(tb.StackAN2(p, 2, 7), tcpCfgAN2(tb, 2, inplace, cksum), 80)
		},
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Connect(tb.StackAN2(p, 1, 7), tcpCfgAN2(tb, 1, inplace, cksum), 1234, tb.IP2, 80)
		})
}

// --------------------------------------------------------------------
// Ethernet stacks (DPF demux + ARP)
// --------------------------------------------------------------------

// ethWorld prepares the Ethernet testbed with ARP daemons.
func ethWorld(cfg *Config) (*Testbed, *arp.Service, *arp.Service) {
	tb := NewEthernetTestbed(cfg)
	s1, err := arp.Start(tb.K1, tb.E1, tb.IP1)
	if err != nil {
		panic(err)
	}
	s2, err := arp.Start(tb.K2, tb.E2, tb.IP2)
	if err != nil {
		panic(err)
	}
	return tb, s1, s2
}

// EthernetUDPPayload is the MSS-equivalent UDP payload on the Ethernet
// (1472 data bytes fill a 1514-byte frame).
const EthernetUDPPayload = 1472

// EthernetTCPMSS is the TCP segment size used on the Ethernet (the paper
// quotes 1500; 1460 is what fits with headers).
const EthernetTCPMSS = 1460

func udpLatencyEth(cfg *Config, iters int) float64 {
	tb, s1, s2 := ethWorld(cfg)
	defer tb.close()
	opts := udp.Options{Checksum: true}
	const warmup = 2
	tb.K2.Spawn("server", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.EthStack(p, 2, ip.ProtoUDP, 53, s2), 53, opts)
		for i := 0; i < warmup+iters; i++ {
			m, err := sock.Recv(true)
			if err != nil {
				panic(err)
			}
			data := append([]byte(nil), m.Bytes(tb.K2)...)
			sock.Release(m)
			_ = sock.SendBytes(m.From, m.FromPort, data)
		}
	})
	var total sim.Time
	tb.K1.Spawn("client", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.EthStack(p, 1, ip.ProtoUDP, 1234, s1), 1234, opts)
		var start sim.Time
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				start = p.K.Now()
			}
			_ = sock.SendBytes(tb.IP2, 53, []byte{1, 2, 3, 4})
			m, err := sock.Recv(true)
			if err != nil {
				panic(err)
			}
			sock.Release(m)
		}
		total = p.K.Now() - start
	})
	tb.run()
	return tb.Us(total) / float64(iters)
}

func udpThroughputEth(cfg *Config, trains int) float64 {
	tb, s1, s2 := ethWorld(cfg)
	defer tb.close()
	opts := udp.Options{Checksum: true}
	return udpTrain(tb, func(p *aegis.Process, host int) *udp.Socket {
		port := uint16(1234)
		svc := s1
		if host == 2 {
			port = 53
			svc = s2
		}
		return udp.NewSocket(tb.EthStack(p, host, ip.ProtoUDP, port, svc), port, opts)
	}, EthernetUDPPayload, trains)
}

func tcpCfgEth(tb *Testbed, host int) tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.MSS = EthernetTCPMSS
	cfg.Polling = true
	cfg.Sys = tb.host(host).sys
	return cfg
}

func tcpLatencyEth(cfg *Config, iters int) float64 {
	tb, s1, s2 := ethWorld(cfg)
	defer tb.close()
	return tcpPingPong(tb, iters, nil,
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Accept(tb.EthStack(p, 2, ip.ProtoTCP, 80, s2), tcpCfgEth(tb, 2), 80)
		},
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Connect(tb.EthStack(p, 1, ip.ProtoTCP, 1234, s1), tcpCfgEth(tb, 1), 1234, tb.IP2, 80)
		})
}

func tcpThroughputEth(cfg *Config, totalBytes int) float64 {
	tb, s1, s2 := ethWorld(cfg)
	defer tb.close()
	return tcpStream(tb, totalBytes, 8192,
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Accept(tb.EthStack(p, 2, ip.ProtoTCP, 80, s2), tcpCfgEth(tb, 2), 80)
		},
		func(p *aegis.Process) (*tcp.Conn, error) {
			return tcp.Connect(tb.EthStack(p, 1, ip.ProtoTCP, 1234, s1), tcpCfgEth(tb, 1), 1234, tb.IP2, 80)
		})
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
