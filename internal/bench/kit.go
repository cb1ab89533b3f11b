package bench

import (
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/dpf"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/tcp"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// The pair kit: the paper's two-host workloads, each written once. The
// evaluation re-runs a handful of them under different configurations — a
// 4-byte ping-pong, a remote increment, 10 MB in 8-KB writes, one handler
// run on a synthetic message — so the configuration (network, handler
// placement, socket options, scheduling state) is an argument here and the
// experiments are the callers. A driver takes the testbed its cell built;
// process names, spawn order, ports and circuits are part of the simulated
// result and of the trace.

// must ends the cell when a step of its workload is refused. A driver that
// dropped the error would leave the peer waiting for a message that was
// never sent: a blocked peer lets the engine drain, so the measurement is
// never taken and the cell reports the zero it started with; a polling one
// spins the simulation forever.
func must(label string, err error) {
	if err != nil {
		panic(fmt.Sprintf("%s: %v", label, err))
	}
}

// pairTCP is the suite's one TCP connection: host 2 accepts on port 80,
// host 1 connects from port 1234, each end configured by cfgFor(host).
func pairTCP(tb *Testbed, cfgFor func(host int) tcp.Config) (accept, connect func(p *aegis.Process) *tcp.Conn) {
	accept = func(p *aegis.Process) *tcp.Conn {
		conn, err := tcp.Accept(tb.stack(p, 2, ip.ProtoTCP, 80), cfgFor(2), 80)
		if err != nil {
			panic(err)
		}
		return conn
	}
	connect = func(p *aegis.Process) *tcp.Conn {
		conn, err := tcp.Connect(tb.stack(p, 1, ip.ProtoTCP, 1234), cfgFor(1), 1234, tb.IP2, 80)
		if err != nil {
			panic(err)
		}
		return conn
	}
	return accept, connect
}

// tcpPingPong measures a 4-byte application-level ping-pong.
func tcpPingPong(tb *Testbed, iters int, cfgFor func(host int) tcp.Config) float64 {
	accept, connect := pairTCP(tb, cfgFor)
	tb.K2.Spawn("server", func(p *aegis.Process) {
		conn := accept(p)
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
		conn := connect(p)
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
	tb.window = [2]sim.Time{start, start + total}
	return tb.Us(total) / float64(iters)
}

// tcpStream measures bulk throughput: total bytes written in writeSize
// chunks over a synchronous-write connection.
func tcpStream(tb *Testbed, totalBytes, writeSize int, cfgFor func(host int) tcp.Config) float64 {
	accept, connect := pairTCP(tb, cfgFor)
	tb.K2.Spawn("server", func(p *aegis.Process) {
		conn := accept(p)
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
		conn := connect(p)
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

// rawPingPong measures Table I's user-level rows: a 4-byte message
// ping-ponged between polling processes that use the full system call
// interface over raw link endpoints, on the AN2 or the Ethernet.
func rawPingPong(tb *Testbed, iters int) float64 {
	// The AN2 demultiplexes on the circuit, the Ethernet with a DPF filter on
	// the first payload byte: a message carries its receiver's tag.
	const echoTag, clientTag = 0xAA, 0xBB
	eth, vc := tb.E1 != nil, 5
	if eth {
		vc = 0
	}
	bind := func(p *aegis.Process, h *host, tag byte) (ep *link.Link) {
		var err error
		if eth {
			ep, err = link.BindEthernet(h.eth, p, dpf.NewFilter().Eq8(0, tag))
		} else {
			ep, err = link.BindAN2(h.an2, p, vc, 8, 4096)
		}
		if err != nil {
			panic(err)
		}
		return ep
	}
	h1, h2 := tb.hosts[0], tb.hosts[1]
	tb.K2.Spawn("echo", func(p *aegis.Process) {
		ep := bind(p, h2, echoTag)
		for i := 0; i < iters; i++ {
			f := ep.Recv(true)
			msg := make([]byte, f.Len())
			f.Bytes(msg, 0, f.Len())
			msg[0] = clientTag
			ep.Release(f)
			ep.Send(link.Addr{Port: f.Entry.Src, VC: vc}, msg)
		}
	})
	var total, start sim.Time
	tb.K1.Spawn("client", func(p *aegis.Process) {
		ep := bind(p, h1, clientTag)
		start = p.K.Now()
		for i := 0; i < iters; i++ {
			ep.Send(link.Addr{Port: h2.addr(), VC: vc}, []byte{echoTag, 0, 0, 4})
			f := ep.Recv(true)
			ep.Release(f)
		}
		total = p.K.Now() - start
	})
	tb.run()
	tb.window = [2]sim.Time{start, start + total}
	return tb.Us(total) / float64(iters)
}

// The remote-increment kit (Table V, Fig. 4): an active message that bumps
// a counter on host 2 and is answered with a 4-byte reply, over AN2 circuit
// incrementVC. The first incrementWarmup round trips are not measured.
const (
	incrementVC     = 9
	incrementWarmup = 2
	// incrementCycles is the user-level server's increment and reply
	// build; uncalibrated.
	incrementCycles sim.Time = 10
)

// installIncrement downloads crl's increment handler under opts for a fresh
// "dsm-app" on host 2 and binds it to the increment circuit as an ASH. With
// upcall set the circuit instead gets the same code run at user level
// through the upcall path, from a second, unsafe download — hardware
// protects a user-level handler; the first download is then unused, but it
// is an instant in the committed trace.
func installIncrement(tb *Testbed, opts core.Options, upcall bool) {
	owner := tb.K2.Spawn("dsm-app", func(p *aegis.Process) {})
	node := crl.NewNode(tb.Sys2, owner)
	prog := crl.IncrementHandler(node.CounterSeg.Base, tb.A1.Addr(), incrementVC)
	ash := tb.Sys2.MustDownload(owner, prog, opts)
	b, err := tb.A2.BindVC(owner, incrementVC, 8, 4096)
	if err != nil {
		panic(err)
	}
	if upcall {
		b.Upcall = tb.Sys2.MustDownload(owner, prog, core.Options{Unsafe: true}).AsUpcall()
	} else {
		ash.Attach(b)
	}
}

// incrementServer is the user-level placement: a "server" process on host 2
// that receives — polling, or blocked until the interrupt path wakes it —
// increments, and replies, warm-up included.
func incrementServer(tb *Testbed, polling bool, iters int) {
	tb.K2.Spawn("server", func(p *aegis.Process) {
		ep, err := link.BindAN2(tb.A2, p, incrementVC, 8, 4096)
		if err != nil {
			panic(err)
		}
		counter := p.AS.MustAlloc(64, "counter")
		for i := 0; i < incrementWarmup+iters; i++ {
			f := ep.Recv(polling)
			// Increment: read the amount, bump, build the reply.
			inc := f.U32(0)
			v, _ := vcode.Load32(p.AS, counter.Base)
			_ = vcode.Store32(p.AS, counter.Base, v+inc)
			p.Compute(incrementCycles)
			reply := make([]byte, 4)
			ep.Release(f)
			ep.Send(link.Addr{Port: f.Entry.Src, VC: incrementVC}, reply)
		}
	})
}

// incrementRun is what incrementClient measures: the window of the iters
// round trips after the warm-up, and whether the client has finished.
type incrementRun struct {
	start, total sim.Time
	done         bool
}

// incrementClient spawns the user-level polling "client" on host 1. A
// message can be lost before the server has bound its circuit (its process
// may be queued behind a competitor's quantum), and a wait can span many
// competitor quanta, so every increment is re-sent on a generous timeout.
func incrementClient(tb *Testbed, iters int, timeoutUs float64) *incrementRun {
	r := &incrementRun{}
	tb.K1.Spawn("client", func(p *aegis.Process) {
		ep, err := link.BindAN2(tb.A1, p, incrementVC, 8, 4096)
		if err != nil {
			panic(err)
		}
		for i := 0; i < incrementWarmup+iters; i++ {
			if i == incrementWarmup {
				r.start = p.K.Now()
			}
			for {
				ep.Send(link.Addr{Port: tb.A2.Addr(), VC: incrementVC}, []byte{0, 0, 0, 1})
				f, ok := ep.RecvUntil(true, p.K.Now()+tb.Prof.Cycles(timeoutUs))
				if ok {
					ep.Release(f)
					break
				}
			}
		}
		r.total = p.K.Now() - r.start
		r.done = true
	})
	return r
}

// runSynthetic runs handlers in sequence over one synthetic message at
// entry, in isolation (Section V-D's methodology: no communication, the
// handler running in the kernel), and reports their dynamic instruction
// count — data copying runs through the trusted engine and is not in it —
// and the message's total cycles. Every handler must consume the message.
// It must run inside an engine event, as an arrival would.
func runSynthetic(tb *Testbed, owner *aegis.Process, entry aegis.RingEntry, handlers ...*core.ASH) (insns int64, cycles sim.Time) {
	mc := aegis.SyntheticMsg(tb.K2, owner, entry)
	for _, h := range handlers {
		if d := h.HandleMsg(mc); d != aegis.DispConsumed || h.InvoluntaryFault != nil {
			panic(fmt.Sprintf("bench: %s on a synthetic message: disposition %v, fault %v", h.Name, d, h.InvoluntaryFault))
		}
		insns += h.LastInsns()
	}
	return insns, mc.Cost()
}
